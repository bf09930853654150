package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"qtrtest"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/exec"
	"qtrtest/internal/fuzz"
	"qtrtest/internal/mutate"
	"qtrtest/internal/opt"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/verify"
)

// sizes fixes how much work one campaign of each workload does. The
// benchmark runs fullSizes; the smoke tests run tinySizes.
type sizes struct {
	suiteRules, suiteK int  // suite-pairs: PairTargets over the first suiteRules exploration rules, suiteK queries each
	fuzzN              int  // fuzz-eet: queries per campaign
	verifyMutatedOnly  bool // verify-mutants: verify only the rules the mutants replace
}

var fullSizes = sizes{suiteRules: 4, suiteK: 3, fuzzN: 24}

// tinySizes keeps each campaign short. The verify filter keeps the seven
// mutated rules, so every mutant can still be flagged.
var tinySizes = sizes{suiteRules: 3, suiteK: 2, fuzzN: 8, verifyMutatedOnly: true}

// env is what set-up builds before a campaign starts: everything a CLI
// invocation of the same campaign pays for before its first query.
type env struct {
	db *qtrtest.DB
	// verifyRegs are the registries verify-mutants sweeps: the pristine
	// registry first, then one per mutant, each extended with the EET pack
	// as `qtrtest verify -eet [-mutant K]` builds them.
	verifyRegs []verifyTarget
}

type verifyTarget struct {
	mutant string // "" for the pristine registry
	reg    *rules.Registry
}

// querySeed fixes the query generators (suite generation and the fuzz
// query stream) at the CLI's default seed; the workload seed varies the
// TPC-H data they run against. Query costs are so heavy-tailed that which
// queries a seed draws would decide a campaign's time (README.md, "Seeds").
const querySeed = 42

// campaign is one workload's campaign run, traced or not.
type campaign struct {
	workers int
	sz      sizes
	// tr is nil for the untraced run. When set, every layer call is
	// wrapped in a span and execution goes through the timed wrappers.
	tr *tracer
}

func (c campaign) engine() exec.Engine {
	if c.tr != nil {
		return timedBatchEngine
	}
	return exec.EngineBatch
}

func (c campaign) backend() string {
	if c.tr != nil {
		return timedRefName
	}
	return "ref"
}

// phase runs fn inside a span when tracing.
func (c campaign) phase(name string, width int, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	id := c.tr.begin(name, width)
	defer c.tr.finish(id)
	return fn()
}

// outcome is what one campaign reports to the benchmark. Campaign runners
// return one even with an error, so its operations count as attempted.
type outcome struct {
	// checks counts oracle verdicts (the checks_per_ref_s numerator).
	checks int
	// attempted and failed count operations for the known-answer check.
	attempted, failed int
	// counters are the report counters the traced run must reproduce.
	counters map[string]int
	// report is the campaign's report in its wire form, hashed for the
	// report_sha256 line.
	report []byte
	// caches are the result caches the campaign used.
	caches []*rescache.Cache
	// layer holds per-layer numbers only the workload itself knows.
	layer map[string]float64
}

func (o *outcome) reportSHA() string {
	sum := sha256.Sum256(o.report)
	return hex.EncodeToString(sum[:])
}

// failAll marks every operation of a campaign that returned an error as
// failed.
func failAll(attempted int, err error) (*outcome, error) {
	return &outcome{attempted: attempted, failed: attempted}, err
}

// workload names a campaign and the set-up it needs. Why each workload was
// chosen is in README.md and BENCHMARK.json.
type workload struct {
	name string
	// setup builds the catalog and registries from the seed.
	setup func(seed int64, tr *tracer) *env
	run   func(c campaign, e *env) (*outcome, error)
}

var workloads = []workload{
	{name: "suite-pairs", setup: setupTPCH, run: runSuitePairs},
	{name: "fuzz-eet", setup: setupTPCH, run: runFuzzEET},
	{name: "verify-mutants", setup: setupVerify, run: runVerifyMutants},
}

func setupTPCH(seed int64, tr *tracer) *env {
	return &env{db: loadTPCH(seed, tr)}
}

func setupVerify(seed int64, tr *tracer) *env {
	e := setupTPCH(seed, tr)
	eet := make([]rules.Rule, 0, len(rules.EETRules()))
	for _, r := range rules.EETRules() {
		eet = append(eet, r)
	}
	e.verifyRegs = append(e.verifyRegs, verifyTarget{reg: rules.RegistryWithEET()})
	for _, m := range mutate.Mutants() {
		e.verifyRegs = append(e.verifyRegs, verifyTarget{mutant: string(m.Kind), reg: rules.Extend(m.Registry(), eet...)})
	}
	return e
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// loadTPCH builds the default TPC-H database as the CLI does for -seed.
func loadTPCH(seed int64, tr *tracer) *qtrtest.DB {
	var db *qtrtest.DB
	campaign{tr: tr}.phase("catalog.load", 1, func() error {
		db = qtrtest.OpenTPCH(1.0, seed)
		return nil
	})
	return db
}

// suiteSummary is the suite-pairs report in wire form: what the CLI's
// `suite -validate` prints, for both compressed suites.
type suiteSummary struct {
	Queries        int          `json:"queries"`
	OptimizerCalls int          `json:"optimizer_calls"`
	Suites         []suiteEntry `json:"suites"`
}

type suiteEntry struct {
	Algo             string   `json:"algo"`
	Assignments      [][2]int `json:"assignments"`
	TotalCost        float64  `json:"total_cost"`
	PlanExecutions   int      `json:"plan_executions"`
	SkippedIdentical int      `json:"skipped_identical"`
	Mismatches       []string `json:"mismatches"`
	Undetermined     int      `json:"undetermined"`
}

func runSuitePairs(c campaign, e *env) (*outcome, error) {
	db := e.db
	targets := suite.PairTargets(db.ExplorationRuleIDs(c.sz.suiteRules))
	attempted := 2 * len(targets) * c.sz.suiteK // the most both suites can assign
	var g *suite.Graph
	err := c.phase("suite.generate", c.workers, func() (err error) {
		g, err = suite.Generate(db.Optimizer, targets, suite.GenConfig{K: c.sz.suiteK, Seed: querySeed, ExtraOps: 3, Workers: c.workers})
		return err
	})
	if err != nil {
		return failAll(attempted, err)
	}
	var sols []*suite.Solution
	err = c.phase("suite.compress", c.workers, func() error {
		for _, build := range []func() (*suite.Solution, error){g.SetMultiCover, g.TopKIndependent} {
			sol, err := build()
			if err != nil {
				return err
			}
			sols = append(sols, sol)
		}
		return nil
	})
	if err != nil {
		return failAll(attempted, err)
	}
	attempted = len(sols[0].Assignments) + len(sols[1].Assignments)
	rc := rescache.New(0)
	g.SetCache(rc)
	g.SetEngine(c.engine())
	var reps []*suite.Report
	err = c.phase("suite.validate", c.workers, func() error {
		for _, sol := range sols {
			rep, err := g.Run(sol, db.Optimizer, db.Catalog)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
		}
		return nil
	})
	if err != nil {
		return failAll(attempted, err)
	}

	out := &outcome{
		checks:    attempted,
		attempted: attempted,
		counters:  map[string]int{"optimizer_calls": g.OptimizerCalls()},
		caches:    []*rescache.Cache{rc},
		layer:     map[string]float64{"opt.calls": float64(g.OptimizerCalls())},
	}
	sum := suiteSummary{Queries: len(g.Queries), OptimizerCalls: g.OptimizerCalls()}
	skipped := 0
	for i, rep := range reps {
		sol := sols[i]
		out.failed += len(rep.Mismatches) + len(rep.BackendDisagreements)
		out.counters["plan_executions"] += rep.PlanExecutions
		out.counters["skipped_identical"] += rep.SkippedIdentical
		out.counters["checks"] += len(sol.Assignments)
		skipped += rep.SkippedIdentical
		ent := suiteEntry{
			Algo: sol.Name, TotalCost: sol.TotalCost, PlanExecutions: rep.PlanExecutions,
			SkippedIdentical: rep.SkippedIdentical, Mismatches: []string{}, Undetermined: len(rep.Undetermined),
		}
		for _, a := range sol.Assignments {
			ent.Assignments = append(ent.Assignments, [2]int{a.Target, a.Query})
		}
		for _, m := range rep.Mismatches {
			ent.Mismatches = append(ent.Mismatches, fmt.Sprintf("%s q%d: %s", m.Target, m.Query.Idx, m.Detail))
		}
		sum.Suites = append(sum.Suites, ent)
	}
	out.layer["suite.identical_skip_share"] = float64(skipped) / float64(attempted)
	if out.report, err = json.MarshalIndent(sum, "", "  "); err != nil {
		return failAll(attempted, err)
	}
	if c.tr != nil {
		if err := replayEdges(c, db.Optimizer, g, sols, out); err != nil {
			return failAll(attempted, err)
		}
	}
	return out, nil
}

// replayEdges measures the optimizer's unit cost, which the campaign only
// reaches inside suite.Generate and the compression algorithms: it
// re-optimizes each assigned edge's query with the edge's rules disabled,
// one "opt.optimize" span per call, and checks the plan equals the one the
// campaign cached for that edge (Graph.EdgePlan). It runs after the traced
// campaign, so it adds no work to the campaign being compared.
func replayEdges(c campaign, o *opt.Optimizer, g *suite.Graph, sols []*suite.Solution, out *outcome) error {
	type edge struct{ q, t int }
	seen := make(map[edge]bool)
	var edges []edge
	for _, sol := range sols {
		for _, a := range sol.Assignments {
			if e := (edge{a.Query, a.Target}); !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].q != edges[j].q {
			return edges[i].q < edges[j].q
		}
		return edges[i].t < edges[j].t
	})
	exprs, differ := 0, 0
	for _, e := range edges {
		q, t := g.Queries[e.q], g.Targets[e.t]
		start := c.tr.now()
		res, err := o.Optimize(q.Tree, q.MD, opt.Options{Disabled: t.Set()})
		c.tr.leaf("opt.optimize", start, c.tr.now())
		if err != nil {
			return fmt.Errorf("replaying edge q%d %s: %w", e.q, t, err)
		}
		exprs += res.Memo.NumExprs()
		if want := g.EdgePlan(e.q, t); want == nil || want.Hash() != res.Plan.Hash() {
			differ++
		}
	}
	out.layer["opt.replayed"] = float64(len(edges))
	out.layer["opt.replay_plan_mismatches"] = float64(differ)
	if len(edges) > 0 {
		out.layer["opt.memo_exprs"] = float64(exprs) / float64(len(edges))
	}
	return nil
}

func runFuzzEET(c campaign, e *env) (*outcome, error) {
	rc := rescache.New(0)
	cfg := fuzz.Config{
		Seed: querySeed, N: c.sz.fuzzN, Workers: c.workers, DB: "tpch", EET: true,
		Catalog: e.db.Catalog, Registry: e.db.Registry,
		Engine: c.engine(), Backend: c.backend(), Cache: rc,
	}
	var rep *fuzz.Report
	err := c.phase("fuzz.run", c.workers, func() (err error) {
		rep, err = fuzz.Run(cfg)
		return err
	})
	if err != nil {
		return failAll(c.sz.fuzzN, err)
	}
	bad := make(map[int]bool)
	for _, f := range rep.Findings {
		bad[f.Query] = true
	}
	skipped := 0
	for _, n := range rep.Skipped {
		skipped += n
	}
	out := &outcome{
		checks:    rep.DifferentialChecks + rep.MetamorphicChecks + rep.BackendChecks,
		attempted: rep.N,
		failed:    len(bad),
		counters: map[string]int{
			"generated":           rep.Generated,
			"plan_executions":     rep.PlanExecutions,
			"differential_checks": rep.DifferentialChecks,
			"metamorphic_checks":  rep.MetamorphicChecks,
			"backend_checks":      rep.BackendChecks,
			"findings":            len(rep.Findings),
		},
		caches: []*rescache.Cache{rc},
		layer:  map[string]float64{"fuzz.skip_share": float64(skipped) / float64(rep.N)},
	}
	out.report, err = rep.JSON()
	return out, err
}

func runVerifyMutants(c campaign, e *env) (*outcome, error) {
	out := &outcome{attempted: len(e.verifyRegs), counters: map[string]int{}, layer: map[string]float64{}}
	var only []rules.ID
	if c.sz.verifyMutatedOnly {
		for _, m := range mutate.Mutants() {
			only = append(only, m.Rule)
		}
	}
	var reports []json.RawMessage
	for _, vt := range e.verifyRegs {
		rc := rescache.New(0)
		cfg := verify.Config{
			Registry: vt.reg, Rules: only, Mutant: vt.mutant, EET: true,
			Workers: c.workers, Cache: rc, Backend: c.backend(),
		}
		var rep *verify.Report
		err := c.phase("verify.run", c.workers, func() (err error) {
			rep, err = verify.Run(cfg)
			return err
		})
		if err != nil {
			return failAll(len(e.verifyRegs), err)
		}
		out.caches = append(out.caches, rc)
		flagged := len(rep.Findings) > 0
		if flagged != (vt.mutant != "") {
			out.failed++
		}
		out.checks += rep.Executed + rep.BackendChecks
		out.counters["pairs"] += rep.Pairs
		out.counters["executed"] += rep.Executed
		out.counters["backend_checks"] += rep.BackendChecks
		out.counters["findings"] += len(rep.Findings)
		out.layer["verify.pairs"] += float64(rep.Pairs)
		data, err := rep.JSON()
		if err != nil {
			return failAll(len(e.verifyRegs), err)
		}
		reports = append(reports, data)
	}
	var err error
	out.report, err = json.Marshal(reports)
	return out, err
}
