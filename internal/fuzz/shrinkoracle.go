package fuzz

import (
	"errors"

	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// shrinkBudget charges the shrinker's oracle budget by execution identity: a
// plan execution costs one check the first time its cache key appears during
// this finding's shrink and is free on every recurrence — exactly the
// executions that would miss a result cache primed by this shrink alone.
//
// The seen-set is deliberately local to the finding rather than asking the
// shared campaign cache "would this hit?": cache contents depend on eviction
// order and on what other workers executed first, so consulting them would
// make shrinking scheduling-dependent. The local set makes the charge
// sequence a pure function of the finding — byte-identical reports with the
// cache on or off, at any worker count — while still modeling what the
// shrinker actually costs when a cache is present, since replayed candidates
// are hits there too.
type shrinkBudget struct {
	c         *campaign
	remaining int
	seen      map[rescache.Key]struct{}
}

func newShrinkBudget(c *campaign) *shrinkBudget {
	return &shrinkBudget{c: c, remaining: c.cfg.MaxShrinkChecks, seen: make(map[rescache.Key]struct{})}
}

// charge deducts one check if this execution key is new to the finding.
func (b *shrinkBudget) charge(eng exec.Engine, plan *physical.Expr) {
	b.chargeKey(rescache.KeyFor(eng, plan, b.c.cfg.Catalog, b.c.cfg.MaxRows, b.c.cfg.MaxWork))
}

// chargeKey is charge for a pre-built execution key (tree executions on a
// backend carry their own key shape).
func (b *shrinkBudget) chargeKey(k rescache.Key) {
	if _, ok := b.seen[k]; ok {
		return
	}
	b.seen[k] = struct{}{}
	b.remaining--
}

// ran charges an oracle's alternative iff it ran, was not skipped and
// returned no error (a budget trip is a Capped outcome, not an error), and
// passes the trial through.
func (b *shrinkBudget) ran(t trial) trial {
	if t.alt != nil && t.err == nil && !t.out.Skipped {
		b.charge(b.c.oracle.Engine, t.alt)
	}
	return t
}

// chargeBackend charges the cross-check's execution of q on the backend.
func (b *shrinkBudget) chargeBackend(q *query) {
	eng, _ := b.c.oracle.Backend()
	if exec.HasTreeBackend(eng) {
		b.chargeKey(rescache.KeyForTree(eng, q.bound.Tree, b.c.cfg.Catalog, b.c.cfg.MaxRows, b.c.cfg.MaxWork))
	} else {
		b.charge(eng, q.res.Plan)
	}
}

func (b *shrinkBudget) spent() bool { return b.remaining <= 0 }

// shrinkFinding minimizes the finding's query tree while the oracle that
// raised it keeps failing, and records the shrunk SQL on the public
// finding. Each candidate is re-derived to its executed base by replayBase,
// then handed to the same campaign method that raised the finding: the
// differential oracle for its rule, the metamorphic oracle for its rewrite,
// the cross-check, or — for an exec-error finding — whichever of those ran
// the failing plan (the base itself when the finding names neither a rule
// nor a rewrite). Rewrite-error findings are left unshrunk: a broken
// rewrite wants its full originating query as context.
//
// The oracle budget (cfg.MaxShrinkChecks) counts distinct plan executions,
// not keep evaluations: candidates whose plans were all executed earlier in
// the shrink re-check for free, so the budget buys strictly more reductions
// than it used to. Shrink's own check bound is effectively disabled — budget
// exhaustion rejects every candidate, which terminates the reduction loop.
func (c *campaign) shrinkFinding(f *finding) {
	budget := newShrinkBudget(c)
	// alt replays the oracle that ran the finding's alternative plan: the
	// differential oracle for its rule, the metamorphic oracle for its
	// rewrite. Base and backend findings name neither.
	var alt func(q *query) trial
	for _, rw := range c.rewrites {
		if rw.Name == f.pub.Rewrite {
			alt = func(q *query) trial { return budget.ran(c.metamorphic(q, rw)) }
			break
		}
	}
	if id := rules.ID(f.pub.Rule); id != 0 {
		alt = func(q *query) trial { return budget.ran(c.differential(q, id)) }
	}
	// trips reports whether a re-derived candidate still trips the oracle;
	// baseErr is its base's execution error.
	var trips func(q *query, baseErr error) bool
	switch {
	case f.pub.Kind == KindDifferential || f.pub.Kind == KindMetamorphic:
		trips = func(q *query, baseErr error) bool { return baseErr == nil && alt(q).mismatch() }
	case f.pub.Kind == KindExecError && alt != nil:
		trips = func(q *query, baseErr error) bool { return baseErr == nil && alt(q).failed() }
	case f.pub.Kind == KindExecError: // the base plan itself failed
		trips = func(_ *query, baseErr error) bool {
			return baseErr != nil && !errors.Is(baseErr, exec.ErrRowLimit)
		}
	case f.pub.Kind == KindBackend:
		trips = func(q *query, baseErr error) bool {
			if baseErr != nil {
				return false
			}
			budget.chargeBackend(q)
			t := c.crossCheck(q)
			return t.err != nil || t.mismatch()
		}
	default:
		return
	}
	keep := func(t *logical.Expr) bool {
		if budget.spent() {
			return false
		}
		q, err := c.replayBase(t, f, budget)
		return q != nil && trips(q, err)
	}
	if !keep(f.tree) {
		// The candidate is re-rendered from the bound tree, whose SQL need
		// not match the generated query's byte for byte, so the re-derived
		// query can plan differently and miss the oracle. Report the
		// finding unshrunk rather than attach a wrong reproducer.
		return
	}
	shrunk := Shrink(f.tree, keep, 1<<30)
	sqlText, err := sqlgen.Generate(shrunk, f.md)
	if err != nil {
		return
	}
	f.pub.ShrunkSQL = sqlText
	f.pub.ShrunkOps = shrunk.CountOps()
}

// replayBase re-derives a shrink candidate's query exactly as runOne
// derives a generated one, charges its base execution to the budget and
// runs it. It returns nil when the candidate no longer renders, binds,
// plans or fits MaxCost; otherwise the query and its base's execution
// error.
func (c *campaign) replayBase(t *logical.Expr, f *finding, budget *shrinkBudget) (*query, error) {
	q, _, err := c.prepare(t, f.md)
	if err != nil || q.res.Plan.Cost > c.cfg.MaxCost {
		return nil, nil
	}
	q.seed = f.pub.Seed
	budget.charge(c.oracle.Engine, q.res.Plan)
	q.base, err = c.oracle.Base(q.res.Plan, c.cfg.Catalog)
	return q, err
}
