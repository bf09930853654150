package qtrtest

import (
	"fmt"
	"runtime"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/exec"
	"qtrtest/internal/opt"
	"qtrtest/internal/sql"
	"qtrtest/internal/sqlgen"
)

// Benchmarks, one per figure of the paper's evaluation (§6). They run
// scaled-down parameter points so `go test -bench=.` stays tractable; the
// full-size sweeps are produced by `go run ./cmd/experiments`. Custom
// metrics report the figures' actual units (trials, optimizer calls, cost)
// alongside ns/op.

func benchDB() *DB { return OpenTPCH(1.0, 42) }

// ---- Figure 8: trials per singleton rule, RANDOM vs PATTERN ----------------

func BenchmarkFig08PatternSingleton(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 1, MaxTrials: 256})
	if err != nil {
		b.Fatal(err)
	}
	ids := db.ExplorationRuleIDs(0)
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := gen.GeneratePattern(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/query")
}

func BenchmarkFig08RandomSingleton(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 2, MaxTrials: 512})
	if err != nil {
		b.Fatal(err)
	}
	// A rule mix exercising easy and hard targets for RANDOM.
	ids := []RuleID{1, 4, 5, 9, 12, 15}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := gen.GenerateRandom([]RuleID{ids[i%len(ids)]})
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/query")
}

// ---- Figures 9/10: rule pairs, trials and time -------------------------------

func BenchmarkFig09PatternPairs(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 3, MaxTrials: 256})
	if err != nil {
		b.Fatal(err)
	}
	ids := db.ExplorationRuleIDs(8)
	var pairs [][2]RuleID
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			pairs = append(pairs, [2]RuleID{ids[i], ids[j]})
		}
	}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		q, err := gen.GeneratePatternPair(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/pair")
}

func BenchmarkFig10RandomPairs(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 4, MaxTrials: 512})
	if err != nil {
		b.Fatal(err)
	}
	// Pairs that RANDOM can reach in bounded trials.
	pairs := [][2]RuleID{{1, 4}, {1, 5}, {4, 5}, {5, 6}, {1, 30}}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		q, err := gen.GenerateRandom([]RuleID{p[0], p[1]})
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/pair")
}

// ---- Figures 11-13: test-suite compression -----------------------------------

// buildSingletonGraph prepares a suite graph once per benchmark.
func buildSingletonGraph(b *testing.B, db *DB, n, k int) *Graph {
	b.Helper()
	g, err := db.GenerateSuite(SingletonTargets(db.ExplorationRuleIDs(n)),
		SuiteConfig{K: k, Seed: 7, ExtraOps: 3})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkFig11Compression(b *testing.B) {
	db := benchDB()
	g := buildSingletonGraph(b, db, 10, 5)
	algos := []struct {
		name string
		run  func() (*Solution, error)
	}{
		{"BASELINE", g.Baseline},
		{"SMC", g.SetMultiCover},
		{"TOPK", g.TopKIndependent},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				g.ResetOptimizerCalls()
				sol, err := a.run()
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

func buildPairGraph(b *testing.B, db *DB, n, k int) *Graph {
	b.Helper()
	g, err := db.GenerateSuite(PairTargets(db.ExplorationRuleIDs(n)),
		SuiteConfig{K: k, Seed: 9, ExtraOps: 3})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkFig12PairCompression(b *testing.B) {
	db := benchDB()
	g := buildPairGraph(b, db, 5, 3)
	algos := []struct {
		name string
		run  func() (*Solution, error)
	}{
		{"BASELINE", g.Baseline},
		{"SMC", g.SetMultiCover},
		{"TOPK", g.TopKIndependent},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				g.ResetOptimizerCalls()
				sol, err := a.run()
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

func BenchmarkFig13VaryK(b *testing.B) {
	db := benchDB()
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := buildPairGraph(b, db, 5, k)
			b.ResetTimer()
			var cost float64
			for i := 0; i < b.N; i++ {
				g.ResetOptimizerCalls()
				sol, err := g.TopKIndependent()
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

// ---- Figure 14: monotonicity --------------------------------------------------

func BenchmarkFig14Monotonicity(b *testing.B) {
	db := benchDB()
	g := buildPairGraph(b, db, 5, 3)
	b.Run("full", func(b *testing.B) {
		var calls int
		for i := 0; i < b.N; i++ {
			g.ResetOptimizerCalls()
			sol, err := g.TopKIndependent()
			if err != nil {
				b.Fatal(err)
			}
			calls = sol.OptimizerCalls
		}
		b.ReportMetric(float64(calls), "optimizer-calls")
	})
	b.Run("monotonic", func(b *testing.B) {
		var calls int
		for i := 0; i < b.N; i++ {
			g.ResetOptimizerCalls()
			sol, err := g.TopKMonotonic()
			if err != nil {
				b.Fatal(err)
			}
			calls = sol.OptimizerCalls
		}
		b.ReportMetric(float64(calls), "optimizer-calls")
	})
}

// ---- parallel campaign engine ---------------------------------------------------

// BenchmarkParallelGraphBuild measures the end-to-end campaign (suite
// generation + edge costing via TopKIndependent) at different worker-pool
// sizes. The figure series and solutions are identical across sub-benchmarks;
// only wall-clock changes.
func BenchmarkParallelGraphBuild(b *testing.B) {
	db := benchDB()
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				g, err := db.GenerateSuite(PairTargets(db.ExplorationRuleIDs(5)),
					SuiteConfig{K: 3, Seed: 9, ExtraOps: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				sol, err := g.TopKIndependent()
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

// BenchmarkSuiteRunEngines measures the execution campaign — running a
// compressed suite's differential tests over the catalog — on the batch
// engine. The suite is generated once at a larger scale so plan execution
// (not generation) dominates.
func BenchmarkSuiteRunEngines(b *testing.B) {
	db := OpenTPCH(10, 42)
	g, err := db.GenerateSuite(PairTargets(db.ExplorationRuleIDs(5)),
		SuiteConfig{K: 3, Seed: 9, ExtraOps: 3, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := g.TopKIndependent()
	if err != nil {
		b.Fatal(err)
	}
	g.SetEngine(exec.EngineBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(sol, db.Optimizer, db.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ------------------------------------------------

const benchQuery = `SELECT c_nationkey, COUNT(*) AS cnt
	FROM customer JOIN orders ON c_custkey = o_custkey
	WHERE o_totalprice > 1000 GROUP BY c_nationkey`

func BenchmarkParseSQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBindSQL(b *testing.B) {
	db := benchDB()
	for i := 0; i < b.N; i++ {
		if _, err := bind.BindSQL(benchQuery, db.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimize(b *testing.B) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeWithDisabledRules(b *testing.B) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	disabled := OptimizeOptions{Disabled: NewRuleSet(5, 6, 7, 104)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Optimizer.Optimize(bound.Tree, bound.MD, disabled); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteJoinAgg(b *testing.B) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	res, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(res.Plan, db.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLGeneration(b *testing.B) {
	db := benchDB()
	gen, err := qgen.New(db.Optimizer, qgen.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q, err := gen.GeneratePattern(14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgen.Generate(q.Tree, q.MD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteGeneration(b *testing.B) {
	db := benchDB()
	for i := 0; i < b.N; i++ {
		_, err := suite.Generate(db.Optimizer,
			suite.SingletonTargets([]RuleID{1, 5, 9}),
			suite.GenConfig{K: 2, Seed: int64(i), ExtraOps: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
}
