package exec

import (
	"fmt"
	"strings"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
)

// OpStats records one operator's estimated versus actual cardinality from an
// instrumented execution (EXPLAIN ANALYZE).
type OpStats struct {
	Op       physical.Op
	Detail   string // table name or join type
	EstRows  float64
	ActRows  int64
	Children []*OpStats
}

// QError returns max(est/act, act/est), the standard cardinality-estimation
// quality metric; 1 is perfect. Zero actuals and estimates are floored at 1.
func (s *OpStats) QError() float64 {
	est := s.EstRows
	act := float64(s.ActRows)
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// MaxQError returns the worst Q-error in the subtree.
func (s *OpStats) MaxQError() float64 {
	worst := s.QError()
	for _, c := range s.Children {
		if q := c.MaxQError(); q > worst {
			worst = q
		}
	}
	return worst
}

// String renders the analyze tree like EXPLAIN ANALYZE output.
func (s *OpStats) String() string {
	var sb strings.Builder
	var walk func(x *OpStats, depth int)
	walk = func(x *OpStats, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.Op.String())
		if x.Detail != "" {
			fmt.Fprintf(&sb, "(%s)", x.Detail)
		}
		fmt.Fprintf(&sb, "  est=%.0f act=%d q=%.1f\n", x.EstRows, x.ActRows, x.QError())
		for _, c := range x.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return sb.String()
}

// newOpStats returns the analyze node of one plan operator, before
// execution.
func newOpStats(plan *physical.Expr) *OpStats {
	stats := &OpStats{Op: plan.Op, EstRows: plan.Rows}
	switch plan.Op {
	case physical.OpScan:
		stats.Detail = plan.Table
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		stats.Detail = plan.JoinType.String()
	}
	return stats
}

// RunAnalyze executes the plan counting the rows every operator emits and
// returns the rows plus the analyze tree (estimated versus actual
// cardinalities). It runs the same engine as Run.
func RunAnalyze(plan *physical.Expr, cat *catalog.Catalog) ([]datum.Row, *OpStats, error) {
	stats := newOpStats(plan)
	it, err := buildBatchIter(plan, cat, nil, stats)
	if err != nil {
		return nil, nil, err
	}
	rows, err := runBatch(it, 0)
	if err != nil {
		return nil, nil, err
	}
	return rows, stats, nil
}
