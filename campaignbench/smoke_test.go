package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny runs one workload at tinySizes through run() and returns the
// decoded last line of its output.
func runTiny(t *testing.T, name string, trace bool, spans string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{workload: name, seed: 5, seconds: 0, trace: trace, workers: 2, spans: spans, sz: tinySizes}
	if err := run(o, &stdout, &stderr); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	return r, stdout.String() + stderr.String()
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				r, out := runTiny(t, w.name, trace, "")
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("known-answer check: correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				if !strings.Contains(out, "report_sha256 "+w.name) || !strings.Contains(out, `"num_cpu"`) {
					t.Errorf("missing report digest or provenance:\n%s", out)
				}
				if !trace {
					for _, d := range endToEnd {
						if r.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
						}
					}
					return
				}
				m := func(n string) float64 { return r.Metrics[n].Value }
				if m("catalog.load_s") <= 0 || m("trace.overhead") <= 0 || m("trace.coverage") <= 0 || m("trace.coverage") > 1.0001 {
					t.Errorf("trace metrics out of range: %v", r.Metrics)
				}
				switch w.name {
				case "suite-pairs":
					if m("opt.calls") <= 0 || m("opt.us_per_call") <= 0 || m("exec.runs") <= 0 || m("suite.compress_s") <= 0 {
						t.Errorf("suite-pairs layers not reached: %v", r.Metrics)
					}
				case "fuzz-eet":
					if m("exec.runs") <= 0 || m("refengine.runs") <= 0 || m("fuzz.driver_s") <= 0 {
						t.Errorf("fuzz-eet layers not reached: %v", r.Metrics)
					}
				case "verify-mutants":
					if m("verify.pairs") <= 0 || m("refengine.runs") <= 0 || m("rescache.lookups") <= 0 {
						t.Errorf("verify-mutants layers not reached: %v", r.Metrics)
					}
				}
			})
		}
	}
}

func TestSpansFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	runTiny(t, "suite-pairs", true, path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.EndUS < s.StartUS {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		names[s.Name]++
	}
	for _, want := range []string{"bench.traced", "catalog.load", "suite.generate", "suite.compress", "suite.validate", "exec.run", "opt.optimize"} {
		if names[want] == 0 {
			t.Errorf("no %s span in %v", want, names)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(options{workload: "nope", workers: 1, sz: tinySizes}, &stdout, &stderr); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatal("printed a result for an unknown workload")
	}
}
