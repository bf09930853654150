package exec

import (
	"fmt"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// EqualMultisets reports whether two result sets contain the same rows with
// the same multiplicities, ignoring order. This is the base correctness
// oracle: two plans for the same query must produce equal multisets.
func EqualMultisets(a, b []datum.Row) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[r.Key()]++
	}
	for _, r := range b {
		k := r.Key()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// DiffSummary describes the first discrepancy between two result multisets,
// for correctness-bug reports.
func DiffSummary(a, b []datum.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("row count mismatch: %d vs %d", len(a), len(b))
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[r.Key()]++
	}
	for _, r := range b {
		k := r.Key()
		counts[k]--
		if counts[k] < 0 {
			return fmt.Sprintf("row %v appears more often in the second result", r)
		}
	}
	return ""
}

// Verdict classifies the outcome of comparing two executions of the same
// query.
type Verdict int

// Comparison verdicts.
const (
	// VerdictEqual means the results are compatible: no bug.
	VerdictEqual Verdict = iota
	// VerdictMismatch means the results cannot both be correct: a
	// correctness bug in one of the plans.
	VerdictMismatch
	// VerdictUndetermined means the results differ but the query's semantics
	// do not fully determine its output (a LIMIT without a total order), so
	// two correct plans may legally disagree.
	VerdictUndetermined
)

var verdictNames = [...]string{"equal", "mismatch", "undetermined"}

// String returns the verdict name.
func (v Verdict) String() string { return verdictNames[v] }

// PlanOrder describes the output-ordering contract of a plan root, computed
// by RootOrder. The oracle uses it to compare ordered results
// order-sensitively and to recognize under-determined queries.
type PlanOrder struct {
	// Sorted reports that the root establishes an output ordering: a Sort
	// reaches the root through order-preserving operators (Limit, Filter,
	// Project).
	Sorted bool
	// Slots and Descs give, per surviving sort key, the output row slot
	// holding the key value and the sort direction. A key whose column is
	// projected away (or computed over) truncates the list; the remaining
	// prefix still orders the output.
	Slots []int
	Descs []bool
	// HasLimit reports a Limit anywhere in the plan. Row counts stay
	// deterministic (LIMIT N yields min(N, |input|) rows), but which rows
	// survive may not be.
	HasLimit bool
	// LimitBelowSort reports a Limit beneath the root ordering's Sort, which
	// leaves even the sorted content under-determined.
	LimitBelowSort bool
}

// RootOrder computes the ordering contract of a plan's output: whether a
// Sort survives to the root, which output slots carry its keys, and where
// Limits sit relative to it.
func RootOrder(plan *physical.Expr) PlanOrder {
	o := PlanOrder{HasLimit: hasLimit(plan)}
	// Plans rarely stack more than a few projections; the array keeps the
	// common case off the heap, since oracles call this once per execution.
	var projBuf [4][]logical.ProjItem
	projs := projBuf[:0]
	cur := plan
walk:
	for {
		switch cur.Op {
		case physical.OpLimit, physical.OpFilter:
			cur = cur.Children[0]
		case physical.OpProject:
			projs = append(projs, cur.Projs)
			cur = cur.Children[0]
		case physical.OpSort:
			slots := envOf(plan.OutputCols())
			for i, k := range cur.Keys {
				col, ok := liftCol(k.Col, projs)
				if !ok {
					break
				}
				slot, ok := slots[col]
				if !ok {
					break
				}
				o.Slots = append(o.Slots, slot)
				o.Descs = append(o.Descs, cur.Keys[i].Desc)
			}
			o.Sorted = len(o.Slots) > 0
			if o.Sorted {
				o.LimitBelowSort = hasLimit(cur.Children[0])
			}
			break walk
		default:
			break walk
		}
	}
	return o
}

// liftCol maps a column produced below the crossed projections (outermost
// first) to the corresponding root output column; ok is false when a
// projection drops the column or computes an expression over it.
func liftCol(col scalar.ColumnID, projs [][]logical.ProjItem) (scalar.ColumnID, bool) {
	for i := len(projs) - 1; i >= 0; i-- {
		found := false
		for _, it := range projs[i] {
			if ref, ok := it.E.(*scalar.ColRef); ok && ref.ID == col {
				col = it.Out
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return col, true
}

func hasLimit(e *physical.Expr) bool {
	if e.Op == physical.OpLimit {
		return true
	}
	for _, c := range e.Children {
		if hasLimit(c) {
			return true
		}
	}
	return false
}

// CompareResults is the order-aware correctness oracle: it compares the
// results of two plans for the same query given each plan's ordering
// contract.
//
// Row counts are deterministic even under LIMIT, so a count difference is
// always a mismatch. When both roots are ordered, the sort-key value
// sequences must agree position by position (rows within a tie group may
// legally be permuted); a flipped or wrong sort order is therefore a
// mismatch, which a pure multiset comparison would miss. Differences that a
// LIMIT without a total order can explain — different rows surviving the
// cut, or different tie-group rows at a sorted LIMIT boundary — yield
// VerdictUndetermined rather than accusing a correct plan.
func CompareResults(base []datum.Row, baseOrder PlanOrder, alt []datum.Row, altOrder PlanOrder) (Verdict, string) {
	if len(base) != len(alt) {
		return VerdictMismatch, fmt.Sprintf("row count mismatch: %d vs %d", len(base), len(alt))
	}
	equalMulti := EqualMultisets(base, alt)
	nkeys := len(baseOrder.Slots)
	if len(altOrder.Slots) < nkeys {
		nkeys = len(altOrder.Slots)
	}
	if baseOrder.Sorted && altOrder.Sorted && nkeys > 0 {
		if r, k := keySeqDiff(base, baseOrder, alt, altOrder, nkeys); r >= 0 {
			if baseOrder.LimitBelowSort || altOrder.LimitBelowSort {
				return VerdictUndetermined, fmt.Sprintf(
					"sort-key sequences diverge at row %d, but a LIMIT below the ORDER BY leaves the sorted content under-determined", r)
			}
			return VerdictMismatch, fmt.Sprintf("ordered results diverge at row %d: sort key %v vs %v",
				r, base[r][baseOrder.Slots[k]], alt[r][altOrder.Slots[k]])
		}
		if equalMulti {
			return VerdictEqual, ""
		}
		if baseOrder.HasLimit || altOrder.HasLimit {
			return VerdictUndetermined, "equal sort-key sequences but row multisets differ at a LIMIT boundary: " + DiffSummary(base, alt)
		}
		return VerdictMismatch, DiffSummary(base, alt)
	}
	if equalMulti {
		return VerdictEqual, ""
	}
	if baseOrder.HasLimit || altOrder.HasLimit {
		return VerdictUndetermined, "LIMIT without a total order: " + DiffSummary(base, alt)
	}
	return VerdictMismatch, DiffSummary(base, alt)
}

// keySeqDiff returns the first (row, key) position where the two ordered
// results' sort-key value sequences disagree, or (-1, 0) if they match.
func keySeqDiff(a []datum.Row, ao PlanOrder, b []datum.Row, bo PlanOrder, nkeys int) (int, int) {
	for r := range a {
		for k := 0; k < nkeys; k++ {
			if datum.TotalCompare(a[r][ao.Slots[k]], b[r][bo.Slots[k]]) != 0 {
				return r, k
			}
		}
	}
	return -1, 0
}
