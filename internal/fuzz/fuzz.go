// Package fuzz is the plan-guided metamorphic fuzzing subsystem: a seeded,
// deterministic campaign that generates random logical query trees (and,
// optionally, random catalogs), runs two oracles per query — the paper's
// differential Plan(q) vs Plan(q,¬R) execution oracle and a metamorphic
// oracle built on known-equivalence rewrites — steers generation QPG-style
// with a plan-shape coverage map, and shrinks every reported failure to a
// minimal query.
//
// Determinism contract: for a fixed Config (and no Timeout cutoff) the
// report is byte-identical at every worker count. Per-query randomness is
// derived from (Seed, index) via par.DeriveSeed; coverage-guided weight
// updates happen only between fixed-size rounds, with the coverage map
// merged in index order, so every query sees a weight snapshot that depends
// only on the campaign prefix — never on worker scheduling.
package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// Config tunes a fuzz campaign.
type Config struct {
	// Seed drives everything: catalog choice (when Catalog is nil), query
	// generation and coverage steering.
	Seed int64
	// N is the number of queries to generate (default 500).
	N int
	// Workers bounds the worker pool; the report is identical for any value.
	Workers int
	// Timeout, when positive, stops the campaign at the next round boundary
	// after the budget elapses. A timed-out report is marked TimedOut and is
	// not workers-deterministic.
	Timeout time.Duration
	// Registry is the rule set under test (default rules.DefaultRegistry;
	// mutation self-tests pass a mutant's registry).
	Registry *rules.Registry
	// Catalog is the test database (default: RandomCatalog(Seed)).
	Catalog *catalog.Catalog
	// DB labels the catalog in the report and reproducer line ("tpch",
	// "star", "rand").
	DB string
	// Mutant labels an injected fault in the report and reproducer line.
	Mutant string
	// MaxOps bounds the random-tree operator budget (default 7).
	MaxOps int
	// MaxRows caps each plan execution's buffered result; plans over the cap
	// are skipped, not failed (default 20000).
	MaxRows int
	// MaxCost skips plans whose estimated cost exceeds it (default 5e6).
	// MaxRows only bounds the root output; a fault that drops a join
	// predicate can make an intermediate result explode while the root stays
	// small, and the cost estimate is the deterministic signal that prices
	// that explosion before execution pays for it.
	MaxCost float64
	// MaxWork caps the total rows produced by all operators of one plan
	// execution, rescans included (default 2e6). It is the runtime backstop
	// behind MaxCost: an injected fault mutates the plan after costing, so
	// its estimate can be arbitrarily wrong about the work its output
	// actually takes.
	MaxWork int64
	// RoundSize is the number of queries per steering round (default 32).
	// Coverage feedback adjusts generator weights only between rounds.
	RoundSize int
	// MaxShrunk bounds how many findings get shrunk (default 8, in report
	// order); MaxShrinkChecks bounds shrink-oracle evaluations per finding
	// (default 300).
	MaxShrunk       int
	MaxShrinkChecks int
	// EET enables the expression-level equivalence rewrites (the scalar EET
	// catalog) alongside the tree-level metamorphic rewrites.
	EET bool
	// StopOnFinding stops the campaign at the first round boundary where at
	// least one finding exists. Unlike Timeout, the cutoff is round-granular
	// and depends only on query indices, so the report stays
	// workers-deterministic.
	StopOnFinding bool
	// Engine selects the execution engine for every plan execution in the
	// campaign: the zero value is the batch engine, and a registered
	// Backend (a timing wrapper, say) may stand in for it.
	Engine exec.Engine
	// Backend names an independent engine ("ref", or "batch" to replay
	// on the campaign's own engine) that every base query is additionally
	// replayed on and compared against — the cross-engine oracle that breaks
	// the campaign's self-differential circularity. The "ref" backend
	// evaluates the pre-optimizer logical tree on the reference interpreter,
	// so it catches faults the optimizer and the batch engine share. Empty
	// (the default) disables the check, leaving the report byte-identical to
	// a backend-less campaign.
	Backend string
	// Cache, when non-nil, memoizes plan executions across the whole
	// campaign — oracles and shrinker alike. Reports are byte-identical with
	// and without it (the cache differential tests pin that); it only
	// collapses the repeated executions fuzzing is full of: Plan(q,¬R)
	// equal to some earlier alternative, shrink candidates replayed after
	// each accepted reduction, rewrites sharing subplans.
	Cache *rescache.Cache
}

func (c *Config) setDefaults() {
	if c.N <= 0 {
		c.N = 500
	}
	if c.MaxOps < 2 {
		c.MaxOps = 7
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 20000
	}
	if c.MaxCost <= 0 {
		c.MaxCost = 5e6
	}
	if c.MaxWork <= 0 {
		c.MaxWork = 2e6
	}
	if c.RoundSize <= 0 {
		c.RoundSize = 32
	}
	if c.MaxShrunk <= 0 {
		c.MaxShrunk = 8
	}
	if c.MaxShrinkChecks <= 0 {
		c.MaxShrinkChecks = 300
	}
	if c.Registry == nil {
		c.Registry = rules.DefaultRegistry()
	}
	if c.Catalog == nil {
		c.Catalog = RandomCatalog(c.Seed)
		if c.DB == "" {
			c.DB = "rand"
		}
	}
	if c.DB == "" {
		c.DB = "custom"
	}
}

// repro formats the reproducer line: the CLI invocation that replays the
// campaign byte-identically at any -workers count.
func (c *Config) repro() string {
	db := fmt.Sprintf("-db %s ", c.DB)
	if c.DB == "rand" {
		db = ""
	}
	backend := ""
	if c.Backend != "" {
		backend = fmt.Sprintf("-backend %s ", c.Backend)
	}
	line := fmt.Sprintf("qtrtest %s%s-seed %d fuzz -n %d", db, backend, c.Seed, c.N)
	if c.EET {
		line += " -eet"
	}
	if c.DB == "rand" {
		line += " -randcat"
	}
	if c.Mutant != "" {
		line += fmt.Sprintf(" -mutant %s", c.Mutant)
	}
	return line + "  # any -workers"
}

// rewritesFor returns the campaign's rewrite list: the tree-level catalog,
// plus the EET expression-level catalog when cfg.EET is set.
func rewritesFor(cfg Config) []Rewrite {
	rws := Rewrites()
	if cfg.EET {
		rws = append(rws, eetRewrites()...)
	}
	return rws
}

// campaign bundles the per-run state shared by all workers (all read-only
// during a round).
type campaign struct {
	cfg      Config
	opt      *opt.Optimizer
	gen      *qgen.Generator
	rewrites []Rewrite
	cache    *rescache.Cache
	// backend is the resolved Config.Backend engine; backendOn gates the
	// cross-engine oracle.
	backend   exec.Engine
	backendOn bool
}

// execBase runs a base plan under the campaign's caps, through the cache
// when one is configured.
func (c *campaign) execBase(plan *physical.Expr) (*suite.BaseExec, error) {
	return suite.ExecBaseCached(c.cache, c.cfg.Engine, plan, c.cfg.Catalog, c.cfg.MaxRows, c.cfg.MaxWork)
}

// compareEdge runs an alternative plan under the campaign's caps and applies
// the order-aware oracle, through the cache when one is configured.
func (c *campaign) compareEdge(base *suite.BaseExec, plan *physical.Expr) (suite.EdgeOutcome, error) {
	return suite.CompareEdgeCached(c.cache, c.cfg.Engine, c.cfg.Catalog, base, plan, c.cfg.MaxRows, c.cfg.MaxWork)
}

// finding is the internal form of a Finding, carrying the bound tree and
// metadata needed to shrink it after the campaign.
type finding struct {
	pub  Finding
	tree *logical.Expr
	md   *logical.Metadata
}

// result is one query's outcome, written into an index-addressed slot.
type result struct {
	skip          string // "" when the query executed; else the stage that rejected it
	shape         uint64
	ops           []logical.Op
	planExecs     int
	diffChecks    int
	metaChecks    int
	backendChecks int
	undetermined  int
	findings      []finding
}

// Run executes a fuzz campaign and returns its report.
func Run(cfg Config) (*Report, error) {
	cfg.setDefaults()
	var backendEng exec.Engine
	if cfg.Backend != "" {
		var err error
		backendEng, err = exec.EngineByName(cfg.Backend)
		if err != nil {
			return nil, err
		}
	}
	o := opt.New(cfg.Registry, cfg.Catalog)
	gen, err := qgen.New(o, qgen.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c := &campaign{
		cfg: cfg, opt: o, gen: gen, rewrites: rewritesFor(cfg), cache: cfg.Cache,
		backend: backendEng, backendOn: cfg.Backend != "",
	}

	rep := &Report{
		Schema: ReportSchema, DB: cfg.DB, Mutant: cfg.Mutant, Backend: cfg.Backend,
		Seed: cfg.Seed, N: cfg.N, Findings: []Finding{},
	}
	var deadline time.Time
	if cfg.Timeout > 0 {
		//qtrlint:allow wallclock -timeout is a wall-clock budget checked only at round boundaries; reports produced without hitting it are still deterministic
		deadline = time.Now().Add(cfg.Timeout)
	}

	weights := qgen.DefaultWeights()
	coverage := make(map[uint64]int)
	var found []finding
	for base := 0; base < cfg.N; base += cfg.RoundSize {
		n := cfg.RoundSize
		if base+n > cfg.N {
			n = cfg.N - base
		}
		// Workers share this round's weight snapshot read-only; boosts are
		// applied after the round, in index order.
		snap := weights.Clone()
		results := make([]result, n)
		par.ForEach(cfg.Workers, n, func(i int) {
			results[i] = c.runOne(base+i, snap)
		})
		for i := range results {
			r := &results[i]
			if r.skip != "" {
				if rep.Skipped == nil {
					rep.Skipped = make(map[string]int)
				}
				rep.Skipped[r.skip]++
				continue
			}
			rep.Generated++
			rep.PlanExecutions += r.planExecs
			rep.DifferentialChecks += r.diffChecks
			rep.MetamorphicChecks += r.metaChecks
			rep.BackendChecks += r.backendChecks
			rep.Undetermined += r.undetermined
			if coverage[r.shape] == 0 {
				// Novel plan shape: QPG-style steering boosts the operators
				// that produced it, so later rounds sample them more often.
				for _, op := range r.ops {
					weights.Boost(op, 1, 12)
				}
			}
			coverage[r.shape]++
			found = append(found, r.findings...)
		}
		if cfg.StopOnFinding && len(found) > 0 {
			break
		}
		if cfg.Timeout > 0 {
			//qtrlint:allow wallclock see above: round-boundary timeout check
			if time.Now().After(deadline) {
				rep.TimedOut = true
				break
			}
		}
	}
	rep.PlanShapes = len(coverage)

	// Shrink the first MaxShrunk findings, in parallel (each shrink is a
	// deterministic function of its finding alone, so slots keep the report
	// deterministic).
	nshrink := len(found)
	if nshrink > cfg.MaxShrunk {
		nshrink = cfg.MaxShrunk
	}
	par.ForEach(cfg.Workers, nshrink, func(i int) {
		c.shrinkFinding(&found[i])
	})
	for i := range found {
		found[i].pub.Repro = cfg.repro()
		rep.Findings = append(rep.Findings, found[i].pub)
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Query < rep.Findings[j].Query
	})
	return rep, nil
}

// runOne generates and tests one query: tree → SQL → bind → optimize →
// execute, then the differential oracle over every rule in RuleSet(q) and
// the metamorphic oracle over every applicable rewrite.
func (c *campaign) runOne(idx int, w *qgen.Weights) result {
	var r result
	seed := par.DeriveSeed(c.cfg.Seed, idx)
	g := c.gen.Fork(seed)
	rng := rand.New(rand.NewSource(par.DeriveSeed(seed, 1)))
	md := logical.NewMetadata(c.cfg.Catalog)
	budget := 2 + rng.Intn(c.cfg.MaxOps-1)
	tree, err := g.RandomTreeWeighted(md, budget, w)
	if err != nil {
		r.skip = "generate"
		return r
	}
	sqlText, err := sqlgen.Generate(tree, md)
	if err != nil {
		r.skip = "render"
		return r
	}
	bound, err := bind.BindSQL(sqlText, c.cfg.Catalog)
	if err != nil {
		r.skip = "bind"
		return r
	}
	res, err := c.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		r.skip = "optimize"
		return r
	}
	if res.Plan.Cost > c.cfg.MaxCost {
		r.skip = "estcap"
		return r
	}
	r.shape = PlanShape(res.Plan)
	r.ops = distinctOps(bound.Tree)

	mk := func(kind string) finding {
		return finding{
			pub: Finding{
				Query: idx, Seed: seed, Kind: kind, SQL: sqlText,
				RuleSet: fmt.Sprintf("%v", res.RuleSet.Sorted()),
			},
			tree: bound.Tree, md: bound.MD,
		}
	}

	base, err := c.execBase(res.Plan)
	if errors.Is(err, exec.ErrRowLimit) {
		r.skip = "rowcap"
		return r
	}
	if err != nil {
		f := mk(KindExecError)
		f.pub.Detail = err.Error()
		f.pub.BasePlan = res.Plan.String()
		r.findings = append(r.findings, f)
		return r
	}
	r.planExecs++

	// Cross-engine oracle: replay the query on the independent backend and
	// compare against the base execution. A backend-side execution error is
	// itself a divergence (engines must agree on Error-vs-OK); a budget
	// trip on the backend skips the comparison per the budget-parity
	// contract.
	if c.backendOn {
		out, err := suite.CrossCheckBase(c.cache, c.backend, c.cfg.Engine,
			bound.Tree, base, c.cfg.Catalog, c.cfg.MaxRows, c.cfg.MaxWork)
		switch {
		case err != nil:
			f := mk(KindBackend)
			f.pub.Detail = err.Error()
			f.pub.BasePlan = res.Plan.String()
			r.findings = append(r.findings, f)
		case out.Skipped || out.Capped:
			// backend == engine, or the backend hit a budget: nothing to
			// compare.
		default:
			r.backendChecks++
			switch out.Verdict {
			case exec.VerdictMismatch:
				f := mk(KindBackend)
				f.pub.Detail = out.Detail
				f.pub.BasePlan = res.Plan.String()
				r.findings = append(r.findings, f)
			case exec.VerdictUndetermined:
				r.undetermined++
			}
		}
	}

	// Differential oracle: disable each exercised rule in turn and compare.
	// An unplannable Plan(q,¬r) (r was the only implementation of some
	// operator) is skipped, not reported: losing plannability is expected,
	// wrong results are not.
	for _, id := range res.RuleSet.Sorted() {
		altRes, err := c.opt.Optimize(bound.Tree, bound.MD, opt.Options{Disabled: rules.NewSet(id)})
		if err != nil || altRes.Plan.Cost > c.cfg.MaxCost {
			continue
		}
		out, err := c.compareEdge(base, altRes.Plan)
		if err != nil {
			f := mk(KindExecError)
			f.pub.Rule = int(id)
			f.pub.Detail = err.Error()
			f.pub.BasePlan = res.Plan.String()
			f.pub.AltPlan = altRes.Plan.String()
			r.findings = append(r.findings, f)
			continue
		}
		if out.Skipped || out.Capped {
			continue
		}
		r.planExecs++
		r.diffChecks++
		switch out.Verdict {
		case exec.VerdictMismatch:
			f := mk(KindDifferential)
			f.pub.Rule = int(id)
			f.pub.Detail = out.Detail
			f.pub.BasePlan = res.Plan.String()
			f.pub.AltPlan = altRes.Plan.String()
			r.findings = append(r.findings, f)
		case exec.VerdictUndetermined:
			r.undetermined++
		}
	}

	// Metamorphic oracle: each applicable rewrite is rendered, re-planned
	// and compared against the base execution.
	for _, rw := range c.rewrites {
		alt := rw.Apply(bound.Tree, bound.MD, seed)
		if alt == nil {
			continue
		}
		altPlan, err := c.planTree(alt, bound.MD)
		if err != nil {
			f := mk(KindRewriteError)
			f.pub.Rewrite = rw.Name
			f.pub.Detail = err.Error()
			r.findings = append(r.findings, f)
			continue
		}
		if altPlan.Cost > c.cfg.MaxCost {
			continue
		}
		out, err := c.compareEdge(base, altPlan)
		if err != nil {
			f := mk(KindExecError)
			f.pub.Rewrite = rw.Name
			f.pub.Detail = err.Error()
			f.pub.BasePlan = res.Plan.String()
			f.pub.AltPlan = altPlan.String()
			r.findings = append(r.findings, f)
			continue
		}
		if out.Capped {
			continue
		}
		if !out.Skipped {
			r.planExecs++
		}
		r.metaChecks++
		switch out.Verdict {
		case exec.VerdictMismatch:
			f := mk(KindMetamorphic)
			f.pub.Rewrite = rw.Name
			f.pub.Detail = out.Detail
			f.pub.BasePlan = res.Plan.String()
			f.pub.AltPlan = altPlan.String()
			r.findings = append(r.findings, f)
		case exec.VerdictUndetermined:
			r.undetermined++
		}
	}
	return r
}

// planTree renders a logical tree to SQL, re-binds and optimizes it — the
// same pipeline a generated query takes, applied to a rewritten tree. The
// supplied metadata is the original query's (a superset of the tree's
// columns), which sqlgen accepts because it names columns by ID.
func (c *campaign) planTree(tree *logical.Expr, md *logical.Metadata) (*physical.Expr, error) {
	sqlText, err := sqlgen.Generate(tree, md)
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	bound, err := bind.BindSQL(sqlText, c.cfg.Catalog)
	if err != nil {
		return nil, fmt.Errorf("bind: %w (sql: %s)", err, sqlText)
	}
	res, err := c.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	return res.Plan, nil
}

// distinctOps returns the distinct logical operators of a tree, sorted, for
// coverage-steering boosts.
func distinctOps(tree *logical.Expr) []logical.Op {
	seen := make(map[logical.Op]bool)
	tree.Walk(func(e *logical.Expr) { seen[e.Op] = true })
	var out []logical.Op
	for _, op := range qgen.WeightedOps {
		if seen[op] {
			out = append(out, op)
		}
	}
	return out
}
