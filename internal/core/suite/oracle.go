package suite

import (
	"errors"
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
)

// BaseExec is one executed Plan(q): the reference side of the differential
// oracle. The suite runner builds one per distinct query; the fuzzer builds
// one per generated query and compares every Plan(q,¬R) and every
// metamorphic variant against it through Oracle.Edge.
type BaseExec struct {
	Plan  *physical.Expr
	Rows  []datum.Row
	Order exec.PlanOrder
}

// EdgeOutcome is the result of Oracle.Edge or Oracle.CrossCheck: either the
// alternative was not worth executing (identical to the base, no
// independent backend, or over a cap), or the order-aware oracle's verdict
// on its results.
type EdgeOutcome struct {
	// Skipped reports there was nothing independent to run: the plan was
	// structurally identical to the base, so identical results are
	// guaranteed (paper footnote 1), or the cross-check backend is off or
	// is the oracle's own engine.
	Skipped bool
	// Capped reports the alternative exceeded MaxRows or MaxWork, so no
	// comparison was possible (only with a positive cap).
	Capped  bool
	Verdict exec.Verdict
	Detail  string
}

// Oracle is the paper's correctness check (§2.3) as one value: execute
// Plan(q) once (Base), execute each alternative plan and compare it with the
// base under the order-aware oracle (Edge), and optionally replay the query
// on an independent backend (CrossCheck). Every campaign — suite
// validation, the fuzzer and its shrinker, the verifier — builds one and
// runs all of its checks through it, so the engine, cache, caps and outcome
// classification exist once.
//
// The zero value executes on the batch engine with no cache, no caps and no
// cross-check. An Oracle is read-only while checks run, so one value may be
// shared by any number of goroutines.
type Oracle struct {
	// Engine executes every plan.
	Engine exec.Engine
	// Cache, when non-nil, memoizes executions. Cached rows are shared
	// read-only between every BaseExec holding them, which the oracle
	// permits because CompareResults never mutates its inputs.
	Cache *rescache.Cache
	// MaxRows > 0 caps each execution's buffered result; MaxWork > 0 caps
	// the total rows produced by all of its operators. A trip is
	// exec.ErrRowLimit from Base and a Capped outcome elsewhere.
	MaxRows int
	MaxWork int64
	// backend is the resolved cross-check engine (SetBackend); nil turns
	// the cross-check off.
	backend *exec.Engine
}

// SetBackend resolves the cross-check backend by name ("ref", or "batch"
// to replay on the batch engine). An empty name turns the cross-check off.
func (o *Oracle) SetBackend(name string) error {
	if name == "" {
		o.backend = nil
		return nil
	}
	e, err := exec.EngineByName(name)
	if err != nil {
		return err
	}
	o.backend = &e
	return nil
}

// Backend returns the cross-check engine and whether one is set.
func (o *Oracle) Backend() (exec.Engine, bool) {
	if o.backend == nil {
		return 0, false
	}
	return *o.backend, true
}

// Base executes Plan(q) and captures everything Edge and CrossCheck need.
func (o *Oracle) Base(plan *physical.Expr, cat *catalog.Catalog) (BaseExec, error) {
	rows, err := o.Cache.Run(o.Engine, plan, cat, o.MaxRows, o.MaxWork)
	if err != nil {
		return BaseExec{}, err
	}
	return BaseExec{Plan: plan, Rows: rows, Order: exec.RootOrder(plan)}, nil
}

// Edge executes an alternative plan for base's query and compares the
// results with the order-aware oracle. The identical-plan skip (paper
// footnote 1) comes before the cache: a skip needs no lookup at all.
func (o *Oracle) Edge(base *BaseExec, plan *physical.Expr, cat *catalog.Catalog) (EdgeOutcome, error) {
	if plan.Hash() == base.Plan.Hash() {
		return EdgeOutcome{Skipped: true}, nil
	}
	rows, err := o.Cache.Run(o.Engine, plan, cat, o.MaxRows, o.MaxWork)
	return judge(base, rows, exec.RootOrder(plan), err)
}

// CrossCheck replays base's query on the independent backend and compares
// the results with the order-aware oracle.
//
// A tree-capable backend (exec.HasTreeBackend) evaluates the query's
// *logical* tree — the pre-optimizer form — so an optimizer fault in the
// base plan cannot replay itself into the cross-check; a built-in engine
// backend re-executes the base plan. Budget trips on the backend side
// surface as Capped (never a verdict), keeping Capped outcomes
// backend-independent per the budget-parity contract (DESIGN.md §15). An
// execution error on the backend when the base succeeded is itself a
// semantic divergence and is returned as an error for the caller to report.
func (o *Oracle) CrossCheck(tree *logical.Expr, base *BaseExec, cat *catalog.Catalog) (EdgeOutcome, error) {
	if o.backend == nil || *o.backend == o.Engine {
		return EdgeOutcome{Skipped: true}, nil
	}
	backend := *o.backend
	if !exec.HasTreeBackend(backend) {
		rows, err := o.Cache.Run(backend, base.Plan, cat, o.MaxRows, o.MaxWork)
		return judge(base, rows, base.Order, backendErr(backend, err))
	}
	if tree == nil {
		return EdgeOutcome{}, fmt.Errorf("suite: backend %v needs the logical tree for a cross-check", backend)
	}
	rows, err := o.Cache.RunTree(backend, tree, cat, o.MaxRows, o.MaxWork)
	return judge(base, rows, exec.TreeOrder(tree), backendErr(backend, err))
}

// backendErr labels a backend's execution error, leaving a budget trip (and
// success) as they are.
func backendErr(backend exec.Engine, err error) error {
	if err == nil || errors.Is(err, exec.ErrRowLimit) {
		return err
	}
	return fmt.Errorf("backend %v execution: %w", backend, err)
}

// judge classifies one alternative execution: a budget trip is Capped, any
// other error is returned, and results are judged by CompareResults.
func judge(base *BaseExec, rows []datum.Row, order exec.PlanOrder, err error) (EdgeOutcome, error) {
	if errors.Is(err, exec.ErrRowLimit) {
		return EdgeOutcome{Capped: true}, nil
	}
	if err != nil {
		return EdgeOutcome{}, err
	}
	verdict, detail := exec.CompareResults(base.Rows, base.Order, rows, order)
	return EdgeOutcome{Verdict: verdict, Detail: detail}, nil
}
