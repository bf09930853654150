package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestCheckDefs(t *testing.T) {
	good := []metricDef{{"campaign_s", "s"}, {"exec.us_per_run", "us"}, {"9lives-x.y_z", "1/s"}, {strings.Repeat("a", 64), "%"}}
	if err := checkDefs(good); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := map[string][]metricDef{
		"space":          {{"campaign s", "s"}},
		"slash":          {{"exec/runs", "count"}},
		"leading dot":    {{".runs", "count"}},
		"leading under":  {{"_runs", "count"}},
		"non-ascii":      {{"läufe", "count"}},
		"empty":          {{"", "s"}},
		"too long":       {{strings.Repeat("a", 65), "s"}},
		"duplicate":      {{"a", "s"}, {"a", "ms"}},
		"bad unit":       {{"a", "m s"}},
		"long unit":      {{"a", strings.Repeat("u", 17)}},
		"empty unit":     {{"a", ""}},
		"unit with plus": {{"a", "s+"}},
	}
	for name, defs := range bad {
		if err := checkDefs(defs); err == nil {
			t.Errorf("%s: %v accepted", name, defs)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkDefs(defs); err != nil {
			t.Errorf("shipped table: %v", err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints in step: same workloads, same metric names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var specWorkloads, ours []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(specWorkloads, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", specWorkloads, ours)
	}
	same := func(what string, spec []metric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", what, len(spec), len(defs))
			return
		}
		for i, m := range spec {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestNewResultRequiresEveryMetric(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "count"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}); err == nil {
		t.Fatal("missing metric b accepted")
	}
	r, err := newResult(defs, map[string]float64{"a": 1.5, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(r.line()), &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, r.line())
		}
	}
	if len(back) != 4 {
		t.Errorf("result line has extra keys: %s", r.line())
	}
}
