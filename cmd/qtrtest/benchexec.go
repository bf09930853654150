package main

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"qtrtest"
	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// benchExecReport measures the batch engine and returns a
// qtrtest-bench/v1 report with its numbers in Benchmarks.
//
// Workloads: one plan per physical operator (scan, filter, project, hash
// join, hash agg, nested-loops join, sort, limit, concat, merge join) over a
// 50k-row synthetic catalog, mirroring the repository benchmark
// BenchmarkEngineOps, plus the end-to-end execution campaign (suite Run over
// a scale-10 TPC-H catalog, mirroring BenchmarkSuiteRunEngines). Each
// workload is measured `rounds` times, workloads interleaved round by round
// so drift spreads over all of them, and the report records the median
// round.
func benchExecReport(commit string, rounds int) (*benchReport, error) {
	cat := execBenchCatalog(50000)
	plans := execBenchPlans()

	db := qtrtest.OpenTPCH(10, 42)
	g, err := db.GenerateSuite(qtrtest.PairTargets(db.ExplorationRuleIDs(5)),
		qtrtest.SuiteConfig{K: 3, Seed: 9, ExtraOps: 3, Workers: 1})
	if err != nil {
		return nil, err
	}
	sol, err := g.TopKIndependent()
	if err != nil {
		return nil, err
	}

	type workload struct {
		name string
		run  func(b *testing.B)
	}
	workloads := make([]workload, 0, len(plans)+1)
	for _, p := range plans {
		plan := p.plan
		workloads = append(workloads, workload{
			name: "Exec/" + p.name,
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := exec.RunEngine(exec.EngineBatch, plan, cat, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	workloads = append(workloads, workload{
		name: "Campaign/SuiteRun",
		run: func(b *testing.B) {
			g.SetEngine(exec.EngineBatch)
			for i := 0; i < b.N; i++ {
				if _, err := g.Run(sol, db.Optimizer, db.Catalog); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	samples := make(map[string][]benchEntry)
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				w.run(b)
			})
			samples[w.name] = append(samples[w.name], benchEntry{
				Name:        w.name,
				Iterations:  res.N,
				NsPerOp:     float64(res.NsPerOp()),
				BytesPerOp:  res.AllocedBytesPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
			})
		}
	}

	report := &benchReport{
		Schema:    "qtrtest-bench/v1",
		GoVersion: runtime.Version(),
		Commit:    commit,
	}
	for _, w := range workloads {
		report.Benchmarks = append(report.Benchmarks, medianEntry(samples[w.name]))
	}
	return report, nil
}

// medianEntry returns the sample with the median ns/op, keeping that round's
// iteration/allocation figures together rather than mixing metrics across
// rounds.
func medianEntry(s []benchEntry) benchEntry {
	sorted := append([]benchEntry(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NsPerOp < sorted[j].NsPerOp })
	return sorted[len(sorted)/2]
}

// execBenchCatalog mirrors the repository benchmark's synthetic
// fact/dimension catalog (internal/exec benchCatalog): "f" with rows fact
// rows, "d" a tenth of that, three int columns each.
func execBenchCatalog(rows int) *catalog.Catalog {
	r := rand.New(rand.NewSource(1))
	c := catalog.New()
	for _, name := range []string{"f", "d"} {
		n := rows
		if name == "d" {
			n = rows / 10
		}
		t := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "a", Type: datum.TypeInt}, {Name: "b", Type: datum.TypeInt}, {Name: "c", Type: datum.TypeInt},
		}}
		for i := 0; i < n; i++ {
			t.Rows = append(t.Rows, datum.Row{
				datum.NewInt(int64(r.Intn(1000))), datum.NewInt(int64(r.Intn(100))), datum.NewInt(int64(i)),
			})
		}
		t.ComputeStats()
		c.Add(t)
	}
	return c
}

type execBenchPlan struct {
	name string
	plan *physical.Expr
}

// execBenchPlans mirrors internal/exec benchPlans: per-operator plans from
// bare scan up to aggregation over a join, over execBenchCatalog's schema.
func execBenchPlans() []execBenchPlan {
	scanF := &physical.Expr{Op: physical.OpScan, Table: "f", Cols: []scalar.ColumnID{1, 2, 3}}
	scanD := &physical.Expr{Op: physical.OpScan, Table: "d", Cols: []scalar.ColumnID{4, 5, 6}}
	filter := &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{scanF},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(50)}}}
	project := &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{filter},
		Projs: []logical.ProjItem{
			{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}},
			{Out: 10, E: &scalar.ColRef{ID: 2}},
		}}
	join := &physical.Expr{Op: physical.OpHashJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, scanD},
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{4}}
	agg := &physical.Expr{Op: physical.OpHashAgg, Children: []*physical.Expr{join},
		GroupCols: []scalar.ColumnID{5},
		Aggs: []scalar.Agg{
			{Op: scalar.AggCountStar, Out: 20},
			{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 3}, Out: 21},
		}}
	// A theta join no hash key can serve, over the filtered fact rows and a
	// 5-row dimension subset: 25k × 5 = 125k candidate pairs.
	dimSubset := &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{scanD},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 6}, R: &scalar.Const{D: datum.NewInt(5)}}}
	nljoin := &physical.Expr{Op: physical.OpNLJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, dimSubset},
		On: &scalar.And{Kids: []scalar.Expr{
			&scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 2}, R: &scalar.ColRef{ID: 5}},
			&scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		}}}
	// The operators that ran row-at-a-time behind adapter shims before every
	// operator was batch-native: a two-key sort and a concat over the
	// filtered fact rows, a merge join on the hash join's keys, and a Limit
	// over the hash join, which pulls one probe row at a time.
	sortOp := &physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{filter},
		Keys: []logical.SortKey{{Col: 2}, {Col: 1, Desc: true}}}
	concat := &physical.Expr{Op: physical.OpConcat, Children: []*physical.Expr{filter, scanD},
		OutCols: []scalar.ColumnID{30, 31}, InputCols: [][]scalar.ColumnID{{1, 2}, {4, 5}}}
	mergejoin := &physical.Expr{Op: physical.OpMergeJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, scanD},
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{4}}
	limit := &physical.Expr{Op: physical.OpLimit, N: 1000, Children: []*physical.Expr{join}}
	return []execBenchPlan{
		{"scan", scanF}, {"filter", filter}, {"project", project}, {"join", join}, {"agg", agg},
		{"nljoin", nljoin}, {"sort", sortOp}, {"limit", limit}, {"concat", concat}, {"mergejoin", mergejoin},
	}
}
