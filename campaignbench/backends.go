package main

import (
	"fmt"
	"sync/atomic"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
)

// The traced run reaches the execution layers through two wrapper backends
// registered on exec's Backend seam. Campaigns select them like any other
// engine (suite.Graph.SetEngine, fuzz.Config.Engine, and the Backend name),
// so every plan execution a campaign makes passes through a timed call
// without a line of the program changing. The untraced run never touches
// them.
const (
	timedBatchName = "timed-batch"
	timedRefName   = "timed-ref"

	// Engine ids far above the built-in ones, so they never collide with a
	// backend the program registers itself.
	timedBatchEngine exec.Engine = 1001
	timedRefEngine   exec.Engine = 1002
)

func init() {
	exec.RegisterBackend(timedBatch{})
	exec.RegisterBackend(timedRef{})
}

// execProbe collects what the wrappers observe during one traced campaign.
// Spans go to the tracer; per-call counts that are not times live here.
type execProbe struct {
	tr      *tracer
	rowsOut atomic.Int64
	nlRuns  atomic.Int64
	nlNanos atomic.Int64
}

// probe is the active execProbe, or nil outside a traced campaign (the
// wrappers then just delegate, which the wrapper tests rely on).
var probe atomic.Pointer[execProbe]

// timedBatch delegates to exec.RunEngine(EngineBatch, …) and records one
// "exec.run" span per call.
type timedBatch struct{}

func (timedBatch) Engine() exec.Engine { return timedBatchEngine }
func (timedBatch) Name() string        { return timedBatchName }

func (timedBatch) RunPlan(plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	p := probe.Load()
	if p == nil {
		return exec.RunEngine(exec.EngineBatch, plan, cat, maxRows, maxWork)
	}
	start := p.tr.now()
	rows, err := exec.RunEngine(exec.EngineBatch, plan, cat, maxRows, maxWork)
	end := p.tr.now()
	p.tr.leaf("exec.run", start, end)
	p.rowsOut.Add(int64(len(rows)))
	if hasNLJoin(plan) {
		p.nlRuns.Add(1)
		p.nlNanos.Add(int64(end - start))
	}
	return rows, err
}

// RunTree is refused, as for the built-in engine it stands in for: the
// batch engine only executes physical plans.
func (timedBatch) RunTree(*logical.Expr, *catalog.Catalog, int, int64) ([]datum.Row, error) {
	return nil, fmt.Errorf("%s: cannot evaluate logical trees", timedBatchName)
}

// timedRef delegates to the reference engine and records one
// "refengine.run" span per call.
type timedRef struct{}

func (timedRef) Engine() exec.Engine { return timedRefEngine }
func (timedRef) Name() string        { return timedRefName }

func (timedRef) RunTree(tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	return timeRef(func() ([]datum.Row, error) { return exec.RunTree(exec.EngineRef, tree, cat, maxRows, maxWork) })
}

func (timedRef) RunPlan(plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	return timeRef(func() ([]datum.Row, error) { return exec.RunEngine(exec.EngineRef, plan, cat, maxRows, maxWork) })
}

func timeRef(run func() ([]datum.Row, error)) ([]datum.Row, error) {
	p := probe.Load()
	if p == nil {
		return run()
	}
	start := p.tr.now()
	rows, err := run()
	p.tr.leaf("refengine.run", start, p.tr.now())
	return rows, err
}

func hasNLJoin(plan *physical.Expr) bool {
	if plan.Op == physical.OpNLJoin {
		return true
	}
	for _, c := range plan.Children {
		if hasNLJoin(c) {
			return true
		}
	}
	return false
}
