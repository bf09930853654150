package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"qtrtest"
	"qtrtest/internal/bind"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/opt"
)

// benchReport is the qtrtest-bench/v1 document written by `qtrtest bench`.
// The schema is documented in DESIGN.md §9.
type benchReport struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	Commit     string       `json:"commit,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// Baseline optionally carries the same measurements taken at an earlier
	// commit for before/after comparison. The bench subcommand never fills
	// it; the committed report records the pre-overhaul numbers here.
	Baseline *baselineBlock `json:"baseline,omitempty"`
}

type baselineBlock struct {
	Commit     string       `json:"commit"`
	Note       string       `json:"note,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	MemoExprsPerSec float64 `json:"memo_exprs_per_sec,omitempty"`
}

// benchQuery mirrors the repository benchmark BenchmarkOptimize so the two
// harnesses measure the same workload.
const benchQuery = `SELECT c_nationkey, COUNT(*) AS cnt
	FROM customer JOIN orders ON c_custkey = o_custkey
	WHERE o_totalprice > 1000 GROUP BY c_nationkey`

// cmdBench measures the optimizer hot path and the end-to-end graph-build
// pipeline with testing.Benchmark and writes a qtrtest-bench/v1 JSON report.
// With -exec it instead measures the batch execution engine (see
// benchExecReport) and defaults the output to BENCH_exec.json.
// With -campaign it measures the campaign pipelines with the plan-result
// cache on (Benchmarks) against cache off (Baseline; see benchCampaignReport)
// and defaults the output to BENCH_campaign.json.
func cmdBench(db *qtrtest.DB, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "", "output file (- for stdout; defaults per mode)")
	commit := fs.String("commit", "", "optional commit label recorded in the report")
	graph := fs.Bool("graph", true, "include the end-to-end graph-build benchmark (slow)")
	execMode := fs.Bool("exec", false, "benchmark the batch execution engine instead of the optimizer")
	campaignMode := fs.Bool("campaign", false, "benchmark the campaign pipelines with the result cache on vs off instead of the optimizer")
	rounds := fs.Int("rounds", 3, "interleaved measurement rounds per arm in -exec/-campaign mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *execMode && *campaignMode {
		return fmt.Errorf("bench: -exec and -campaign are mutually exclusive")
	}
	if *execMode {
		if *out == "" {
			*out = "BENCH_exec.json"
		}
		report, err := benchExecReport(*commit, *rounds)
		if err != nil {
			return err
		}
		return writeBenchReport(report, *out)
	}
	if *campaignMode {
		if *out == "" {
			*out = "BENCH_campaign.json"
		}
		report, err := benchCampaignReport(*commit, *rounds)
		if err != nil {
			return err
		}
		return writeBenchReport(report, *out)
	}
	if *out == "" {
		*out = "BENCH_optimizer.json"
	}

	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		return err
	}
	// Count memo expressions once: the workload is deterministic, so every
	// iteration builds the same memo.
	probe, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		return err
	}
	memoExprs := probe.Memo.NumExprs()

	optRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	report := benchReport{
		Schema:    "qtrtest-bench/v1",
		GoVersion: runtime.Version(),
		Commit:    *commit,
		Benchmarks: []benchEntry{{
			Name:            "Optimize",
			Iterations:      optRes.N,
			NsPerOp:         float64(optRes.NsPerOp()),
			BytesPerOp:      optRes.AllocedBytesPerOp(),
			AllocsPerOp:     optRes.AllocsPerOp(),
			MemoExprsPerSec: float64(memoExprs) * 1e9 / float64(optRes.NsPerOp()),
		}},
	}

	if *graph {
		campRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := suite.Generate(db.Optimizer,
					suite.PairTargets(db.ExplorationRuleIDs(5)),
					suite.GenConfig{K: 3, Seed: 9, ExtraOps: 3, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.TopKIndependent(); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Benchmarks = append(report.Benchmarks, benchEntry{
			Name:        "ParallelGraphBuild/workers=1",
			Iterations:  campRes.N,
			NsPerOp:     float64(campRes.NsPerOp()),
			BytesPerOp:  campRes.AllocedBytesPerOp(),
			AllocsPerOp: campRes.AllocsPerOp(),
		})
	}

	return writeBenchReport(&report, *out)
}

// writeBenchReport marshals a qtrtest-bench/v1 report to the given path, or
// stdout for "-".
func writeBenchReport(report *benchReport, out string) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", out, len(report.Benchmarks))
	return nil
}
