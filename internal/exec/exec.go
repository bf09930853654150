// Package exec executes physical plans. Correctness testing (§2.3) executes
// Plan(q) and Plan(q,¬R) and compares their results as multisets; this
// package provides both the execution engine (batch.go) and the comparison
// oracle (compare.go).
package exec

import (
	"errors"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// envOf maps a column layout to slot positions.
func envOf(cols []scalar.ColumnID) scalar.Env {
	env := make(scalar.Env, len(cols))
	for i, c := range cols {
		env[c] = i
	}
	return env
}

// Run executes a plan to completion on the batch engine and returns all
// result rows.
func Run(plan *physical.Expr, cat *catalog.Catalog) ([]datum.Row, error) {
	return RunEngine(EngineBatch, plan, cat, 0, 0)
}

// ErrRowLimit reports that a plan exceeded a row cap passed to RunMax: its
// result grew past maxRows, or its operators produced more rows in total
// than maxWork. Fuzzing uses it to skip pathological plans (a dropped join
// predicate turns a join into a cross product) instead of paying for them.
var ErrRowLimit = errors.New("exec: result row cap exceeded")

// RunMax executes a plan like Run but fails with ErrRowLimit as soon as the
// result exceeds maxRows, or the rows produced by all operators together
// exceed maxWork. A root-only cap cannot bound a plan whose intermediate
// results explode while its root stays small (a dropped join predicate under
// an aggregation); the work budget can. Zero or negative caps mean uncapped.
func RunMax(plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	return RunEngine(EngineBatch, plan, cat, maxRows, maxWork)
}
