package exec

import (
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// TestIteratorsReopen: every operator must be re-runnable (Open resets
// state) with or without a work budget.
func TestIteratorsReopen(t *testing.T) {
	cat := testCatalog()
	plans := []*physical.Expr{
		scanT1(),
		{Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(0)}}},
		joinPlan(physical.OpHashJoin, physical.JoinInner),
		joinPlan(physical.OpNLJoin, physical.JoinLeft),
		joinPlan(physical.OpMergeJoin, physical.JoinInner),
		{Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
			GroupCols: []scalar.ColumnID{3},
			Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}}},
		{Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
			Keys: []logical.SortKey{{Col: 1}}},
		{Op: physical.OpLimit, Children: []*physical.Expr{scanT1()}, N: 2},
		{Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
			OutCols: []scalar.ColumnID{30}, InputCols: [][]scalar.ColumnID{{1}, {3}}},
	}
	for _, plan := range plans {
		budget := int64(1 << 20)
		it, err := buildBatchIter(plan, cat, &budget, nil)
		if err != nil {
			t.Fatalf("%s: %v", plan.Op, err)
		}
		count := func() int {
			if err := it.Open(); err != nil {
				t.Fatalf("%s open: %v", plan.Op, err)
			}
			n := 0
			for {
				b, err := it.Next(unbounded)
				if err != nil {
					t.Fatalf("%s next: %v", plan.Op, err)
				}
				if b == nil {
					break
				}
				n += b.Len()
			}
			return n
		}
		first := count()
		second := count()
		if first != second {
			t.Errorf("%s: first run %d rows, second run %d — Open must reset state", plan.Op, first, second)
		}
		if err := it.Close(); err != nil {
			t.Errorf("%s close: %v", plan.Op, err)
		}
	}
}

// TestNextAfterEOF: Next after exhaustion keeps returning nil without error.
func TestNextAfterEOF(t *testing.T) {
	it, err := buildBatchIter(scanT1(), testCatalog(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := it.Next(unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
	}
	for i := 0; i < 3; i++ {
		b, err := it.Next(unbounded)
		if err != nil || b != nil {
			t.Fatalf("Next after EOF: batch=%v err=%v", b, err)
		}
	}
}

// TestFilterErrorPropagation: scalar evaluation errors surface, not panic.
func TestFilterErrorPropagation(t *testing.T) {
	plan := &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
		Filter: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 999}, R: &scalar.Const{D: datum.NewInt(1)}},
	}
	if _, err := Run(plan, testCatalog()); err == nil {
		t.Error("unbound column must produce an error")
	}
}
