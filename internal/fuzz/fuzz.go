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
	// oracle runs every execution and comparison of the campaign, oracles
	// and shrinker alike, under the campaign's engine, backend, cache and
	// caps.
	oracle suite.Oracle
}

// newCampaign builds the campaign state for a defaulted Config.
func newCampaign(cfg Config) (*campaign, error) {
	c := &campaign{
		cfg: cfg, rewrites: rewritesFor(cfg),
		oracle: suite.Oracle{Engine: cfg.Engine, Cache: cfg.Cache, MaxRows: cfg.MaxRows, MaxWork: cfg.MaxWork},
	}
	if err := c.oracle.SetBackend(cfg.Backend); err != nil {
		return nil, err
	}
	c.opt = opt.New(cfg.Registry, cfg.Catalog)
	var err error
	if c.gen, err = qgen.New(c.opt, qgen.Config{Seed: cfg.Seed}); err != nil {
		return nil, err
	}
	return c, nil
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
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
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
// execute, then the cross-engine oracle, the differential oracle over every
// rule in RuleSet(q) and the metamorphic oracle over every applicable
// rewrite.
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
	q, stage, _ := c.prepare(tree, md)
	if q == nil {
		r.skip = stage
		return r
	}
	if q.res.Plan.Cost > c.cfg.MaxCost {
		r.skip = "estcap"
		return r
	}
	q.seed = seed
	r.shape = PlanShape(q.res.Plan)
	r.ops = distinctOps(q.bound.Tree)

	// add records a finding; base and alt, when non-nil, are the plans it
	// cites as evidence.
	add := func(kind, detail string, base, alt *physical.Expr) *Finding {
		f := finding{
			pub: Finding{
				Query: idx, Seed: seed, Kind: kind, SQL: q.sql,
				RuleSet: fmt.Sprintf("%v", q.res.RuleSet.Sorted()), Detail: detail,
			},
			tree: q.bound.Tree, md: q.bound.MD,
		}
		if base != nil {
			f.pub.BasePlan = base.String()
		}
		if alt != nil {
			f.pub.AltPlan = alt.String()
		}
		r.findings = append(r.findings, f)
		return &r.findings[len(r.findings)-1].pub
	}

	q.base, err = c.oracle.Base(q.res.Plan, c.cfg.Catalog)
	if errors.Is(err, exec.ErrRowLimit) {
		r.skip = "rowcap"
		return r
	}
	if err != nil {
		add(KindExecError, err.Error(), q.res.Plan, nil)
		return r
	}
	r.planExecs++

	// A backend-side execution error is itself a divergence (engines must
	// agree on Error-vs-OK); a budget trip on the backend skips the
	// comparison per the budget-parity contract.
	tr := c.crossCheck(q)
	switch {
	case tr.err != nil:
		add(KindBackend, tr.err.Error(), q.res.Plan, nil)
	case tr.out.Skipped || tr.out.Capped:
	default:
		r.backendChecks++
		switch tr.out.Verdict {
		case exec.VerdictMismatch:
			add(KindBackend, tr.out.Detail, q.res.Plan, nil)
		case exec.VerdictUndetermined:
			r.undetermined++
		}
	}

	for _, id := range q.res.RuleSet.Sorted() {
		tr := c.differential(q, id)
		switch {
		case tr.alt == nil || tr.out.Skipped || tr.out.Capped:
			continue
		case tr.err != nil:
			add(KindExecError, tr.err.Error(), q.res.Plan, tr.alt).Rule = int(id)
			continue
		}
		r.planExecs++
		r.diffChecks++
		switch tr.out.Verdict {
		case exec.VerdictMismatch:
			add(KindDifferential, tr.out.Detail, q.res.Plan, tr.alt).Rule = int(id)
		case exec.VerdictUndetermined:
			r.undetermined++
		}
	}

	for _, rw := range c.rewrites {
		tr := c.metamorphic(q, rw)
		switch {
		case tr.alt == nil && tr.err != nil:
			add(KindRewriteError, tr.err.Error(), nil, nil).Rewrite = rw.Name
			continue
		case tr.alt == nil || tr.out.Capped:
			continue
		case tr.err != nil:
			add(KindExecError, tr.err.Error(), q.res.Plan, tr.alt).Rewrite = rw.Name
			continue
		}
		if !tr.out.Skipped {
			r.planExecs++
		}
		r.metaChecks++
		switch tr.out.Verdict {
		case exec.VerdictMismatch:
			add(KindMetamorphic, tr.out.Detail, q.res.Plan, tr.alt).Rewrite = rw.Name
		case exec.VerdictUndetermined:
			r.undetermined++
		}
	}
	return r
}

// query is one query taken through the pipeline to its executed Plan(q):
// the reference side every oracle compares against.
type query struct {
	sql   string
	bound *bind.Bound
	res   *opt.Result // Plan(q) and RuleSet(q)
	base  suite.BaseExec
	// seed is the query's derived seed, which seed-dependent rewrites (EET
	// site selection) choose by.
	seed int64
}

// trial is one oracle's check of one alternative against a query's base:
// the alternative plan it ran and the outcome. alt is nil when the oracle
// did not run; err is then why it could not (a rewrite whose output fails
// to render, bind or plan), or nil when it did not apply. With alt set,
// err is the alternative's execution error.
type trial struct {
	alt *physical.Expr
	out suite.EdgeOutcome
	err error
}

// mismatch reports that the oracle ran and rejected the results.
func (t trial) mismatch() bool { return t.err == nil && t.out.Verdict == exec.VerdictMismatch }

// failed reports that the alternative ran and failed with an execution
// error other than a budget trip.
func (t trial) failed() bool { return t.alt != nil && t.err != nil }

// crossCheck is the cross-engine oracle: q replayed on the independent
// backend, which breaks the self-differential circularity of the other two.
func (c *campaign) crossCheck(q *query) trial {
	out, err := c.oracle.CrossCheck(q.bound.Tree, &q.base, c.cfg.Catalog)
	return trial{alt: q.res.Plan, out: out, err: err}
}

// differential is the paper's oracle for one exercised rule: Plan(q,¬id)
// against Plan(q). An unplannable Plan(q,¬id) (id was the only
// implementation of some operator) or one over MaxCost does not run:
// losing plannability is expected, wrong results are not.
func (c *campaign) differential(q *query, id rules.ID) trial {
	res, err := c.opt.Optimize(q.bound.Tree, q.bound.MD, opt.Options{Disabled: rules.NewSet(id)})
	if err != nil || res.Plan.Cost > c.cfg.MaxCost {
		return trial{}
	}
	return c.edge(q, res.Plan)
}

// metamorphic is the oracle for one rewrite: the rewritten query is
// rendered, re-planned and compared against q's base.
func (c *campaign) metamorphic(q *query, rw Rewrite) trial {
	alt := rw.Apply(q.bound.Tree, q.bound.MD, q.seed)
	if alt == nil {
		return trial{}
	}
	rq, _, err := c.prepare(alt, q.bound.MD)
	if err != nil {
		return trial{err: err}
	}
	if rq.res.Plan.Cost > c.cfg.MaxCost {
		return trial{}
	}
	return c.edge(q, rq.res.Plan)
}

func (c *campaign) edge(q *query, alt *physical.Expr) trial {
	out, err := c.oracle.Edge(&q.base, alt, c.cfg.Catalog)
	return trial{alt: alt, out: out, err: err}
}

// prepare takes a query tree through render → bind → optimize, the
// pipeline every generated query, rewritten query and shrink candidate
// takes. On failure it returns the stage that rejected the tree (the
// report's skip label) and the error, prefixed with the stage. A rewritten
// tree is prepared under the original query's metadata, a superset of its
// columns, which sqlgen accepts because it names columns by ID.
func (c *campaign) prepare(tree *logical.Expr, md *logical.Metadata) (*query, string, error) {
	sqlText, err := sqlgen.Generate(tree, md)
	if err != nil {
		return nil, "render", fmt.Errorf("render: %w", err)
	}
	bound, err := bind.BindSQL(sqlText, c.cfg.Catalog)
	if err != nil {
		return nil, "bind", fmt.Errorf("bind: %w (sql: %s)", err, sqlText)
	}
	res, err := c.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		return nil, "optimize", fmt.Errorf("optimize: %w", err)
	}
	return &query{sql: sqlText, bound: bound, res: res}, "", nil
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
