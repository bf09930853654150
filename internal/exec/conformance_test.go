package exec

import (
	"fmt"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// confCatalog is testCatalog plus a FLOAT table for the numeric-widening
// cases and a pair of tables for the semi/anti error-parity cases:
//
//	t3(f): 1.0, 2.5
//	tl(k): 1
//	tr(k, s): (1, NULL), (1, 'x')
func confCatalog() *catalog.Catalog {
	c := testCatalog()
	t3 := &catalog.Table{
		Name:    "t3",
		Columns: []catalog.Column{{Name: "f", Type: datum.TypeFloat}},
		Rows: []datum.Row{
			{datum.NewFloat(1.0)},
			{datum.NewFloat(2.5)},
		},
	}
	t3.ComputeStats()
	c.Add(t3)
	tl := &catalog.Table{
		Name:    "tl",
		Columns: []catalog.Column{{Name: "k", Type: datum.TypeInt}},
		Rows:    []datum.Row{{datum.NewInt(1)}},
	}
	tl.ComputeStats()
	c.Add(tl)
	tr := &catalog.Table{
		Name:    "tr",
		Columns: []catalog.Column{{Name: "k", Type: datum.TypeInt}, {Name: "s", Type: datum.TypeString}},
		Rows: []datum.Row{
			{datum.NewInt(1), datum.Null},
			{datum.NewInt(1), datum.NewString("x")},
		},
	}
	tr.ComputeStats()
	c.Add(tr)
	return c
}

// stopAtFirstMatch joins tl to tr on tl.k = tr.k OR tr.s + 1 > 0. The first
// candidate passes (TRUE OR UNKNOWN); the second would fail with
// arithmetic on 'x'. A semi/anti row stops at its first passing candidate,
// so no engine may raise that error.
func stopAtFirstMatch(op physical.Op, jt physical.JoinType) *physical.Expr {
	plan := &physical.Expr{
		Op: op, JoinType: jt,
		Children: []*physical.Expr{
			{Op: physical.OpScan, Table: "tl", Cols: []scalar.ColumnID{6}},
			{Op: physical.OpScan, Table: "tr", Cols: []scalar.ColumnID{7, 8}},
		},
		On: &scalar.Or{Kids: []scalar.Expr{
			cmp(scalar.CmpEQ, col(6), col(7)),
			cmp(scalar.CmpGT, &scalar.Arith{Op: scalar.ArithAdd, L: col(8), R: intc(1)}, intc(0)),
		}},
	}
	if op == physical.OpHashJoin {
		plan.EquiLeft, plan.EquiRight = []scalar.ColumnID{6}, []scalar.ColumnID{7}
	}
	return plan
}

func scanT3() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "t3", Cols: []scalar.ColumnID{5}}
}

func col(id scalar.ColumnID) scalar.Expr { return &scalar.ColRef{ID: id} }
func intc(v int64) scalar.Expr           { return &scalar.Const{D: datum.NewInt(v)} }
func cmp(op scalar.CmpOp, l, r scalar.Expr) scalar.Expr {
	return &scalar.Cmp{Op: op, L: l, R: r}
}

func filterOf(child *physical.Expr, pred scalar.Expr) *physical.Expr {
	return &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{child}, Filter: pred}
}

// emptyT1 filters t1 down to zero rows (b > 1000 never holds).
func emptyT1() *physical.Expr {
	return filterOf(scanT1(), cmp(scalar.CmpGT, col(2), intc(1000)))
}

func row(ds ...datum.Datum) datum.Row { return datum.Row(ds) }

// TestBackendConformance executes one table of (plan, expected-rows) cases on
// every engine — batch and every Backend (ref), plus the recorded answers of
// the retired row engine — from a single test, pinning the semantics the
// backends must agree on: 3VL predicate evaluation, NULL grouping and join
// keys, empty-input aggregates, LIMIT, sort stability and NULL placement,
// and numeric-kind widening of group keys. A positional case compares the output row-for-row; a multiset
// case compares after NormalizeRows on both sides.
func TestBackendConformance(t *testing.T) {
	cat := confCatalog()
	ni, nf, null := datum.NewInt, datum.NewFloat, datum.Null
	type confCase struct {
		name       string
		plan       *physical.Expr
		positional bool
		want       []datum.Row
	}
	cases := []confCase{
		{
			// b > 15: (3,NULL) evaluates UNKNOWN and is dropped.
			name: "3vl-filter-drops-unknown",
			plan: filterOf(scanT1(), cmp(scalar.CmpGT, col(2), intc(15))),
			want: []datum.Row{row(ni(2), ni(20)), row(null, ni(40))},
		},
		{
			// NOT(b > 15): NOT UNKNOWN is still UNKNOWN, so (3,NULL) stays out
			// of both the filter and its negation.
			name: "3vl-not-unknown-stays-unknown",
			plan: filterOf(scanT1(), &scalar.Not{Kid: cmp(scalar.CmpGT, col(2), intc(15))}),
			want: []datum.Row{row(ni(1), ni(10))},
		},
		{
			// a = 1 OR b > 100: the (NULL,40) row is UNKNOWN OR FALSE = UNKNOWN.
			name: "3vl-or-with-null",
			plan: filterOf(scanT1(), &scalar.Or{Kids: []scalar.Expr{
				cmp(scalar.CmpEQ, col(1), intc(1)),
				cmp(scalar.CmpGT, col(2), intc(100)),
			}}),
			want: []datum.Row{row(ni(1), ni(10))},
		},
		{
			name: "is-null-selects-null-row",
			plan: filterOf(scanT1(), &scalar.IsNull{Kid: col(1)}),
			want: []datum.Row{row(null, ni(40))},
		},
		{
			// NULL join keys never match; a=1 matches twice, a=3 once.
			name: "inner-join-null-keys",
			plan: joinPlan(physical.OpHashJoin, physical.JoinInner),
			want: []datum.Row{
				row(ni(1), ni(10), ni(1), datum.NewString("one")),
				row(ni(1), ni(10), ni(1), datum.NewString("uno")),
				row(ni(3), null, ni(3), datum.NewString("three")),
			},
		},
		{
			// Unmatched left rows — including the NULL-key one — pad with NULLs.
			name: "left-join-pads-unmatched",
			plan: joinPlan(physical.OpHashJoin, physical.JoinLeft),
			want: []datum.Row{
				row(ni(1), ni(10), ni(1), datum.NewString("one")),
				row(ni(1), ni(10), ni(1), datum.NewString("uno")),
				row(ni(3), null, ni(3), datum.NewString("three")),
				row(ni(2), ni(20), null, null),
				row(null, ni(40), null, null),
			},
		},
		{
			// Semi emits each matching left row once even with two matches.
			name: "semi-join-no-duplicates",
			plan: joinPlan(physical.OpHashJoin, physical.JoinSemi),
			want: []datum.Row{row(ni(1), ni(10)), row(ni(3), null)},
		},
		{
			// Anti keeps the NULL-key left row: NULL = x is UNKNOWN, not a match.
			name: "anti-join-keeps-null-key",
			plan: joinPlan(physical.OpHashJoin, physical.JoinAnti),
			want: []datum.Row{row(ni(2), ni(20)), row(null, ni(40))},
		},
		{
			// NULL forms its own group; COUNT(b) skips NULL b, SUM(NULL-only)
			// is NULL.
			name: "null-grouping-and-agg-nulls",
			plan: &physical.Expr{
				Op: physical.OpHashAgg, Children: []*physical.Expr{scanT1()},
				GroupCols: []scalar.ColumnID{1},
				Aggs: []scalar.Agg{
					{Op: scalar.AggCountStar, Out: 10},
					{Op: scalar.AggCount, Arg: col(2), Out: 11},
					{Op: scalar.AggSum, Arg: col(2), Out: 12},
				},
			},
			want: []datum.Row{
				row(ni(1), ni(1), ni(1), ni(10)),
				row(ni(2), ni(1), ni(1), ni(20)),
				row(ni(3), ni(1), ni(0), null),
				row(null, ni(1), ni(1), ni(40)),
			},
		},
		{
			// Scalar aggregate over empty input: one row, COUNT 0, others NULL.
			name: "empty-input-scalar-agg",
			plan: &physical.Expr{
				Op: physical.OpHashAgg, Children: []*physical.Expr{emptyT1()},
				Aggs: []scalar.Agg{
					{Op: scalar.AggCountStar, Out: 10},
					{Op: scalar.AggCount, Arg: col(2), Out: 11},
					{Op: scalar.AggSum, Arg: col(2), Out: 12},
					{Op: scalar.AggMin, Arg: col(2), Out: 13},
					{Op: scalar.AggMax, Arg: col(2), Out: 14},
					{Op: scalar.AggAvg, Arg: col(2), Out: 15},
				},
			},
			want: []datum.Row{row(ni(0), ni(0), null, null, null, null)},
		},
		{
			// Grouped aggregate over empty input: zero rows.
			name: "empty-input-grouped-agg",
			plan: &physical.Expr{
				Op: physical.OpHashAgg, Children: []*physical.Expr{emptyT1()},
				GroupCols: []scalar.ColumnID{1},
				Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}},
			},
			want: nil,
		},
		{
			// Ascending sort puts NULL first; positional comparison pins it.
			name:       "sort-asc-nulls-first",
			positional: true,
			plan: &physical.Expr{
				Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
				Keys: []logical.SortKey{{Col: 1}},
			},
			want: []datum.Row{
				row(null, ni(40)), row(ni(1), ni(10)), row(ni(2), ni(20)), row(ni(3), null),
			},
		},
		{
			// Descending sort reverses the total order, so NULL lands last.
			name:       "sort-desc-nulls-last",
			positional: true,
			plan: &physical.Expr{
				Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
				Keys: []logical.SortKey{{Col: 1, Desc: true}},
			},
			want: []datum.Row{
				row(ni(3), null), row(ni(2), ni(20)), row(ni(1), ni(10)), row(null, ni(40)),
			},
		},
		{
			// Stable sort: the tied x=1 rows keep their table order (one, uno).
			name:       "sort-stability-on-ties",
			positional: true,
			plan: &physical.Expr{
				Op: physical.OpSort, Children: []*physical.Expr{scanT2()},
				Keys: []logical.SortKey{{Col: 3}},
			},
			want: []datum.Row{
				row(null, datum.NewString("null")),
				row(ni(1), datum.NewString("one")),
				row(ni(1), datum.NewString("uno")),
				row(ni(3), datum.NewString("three")),
			},
		},
		{
			// LIMIT under the input size, after a total-order sort.
			name:       "limit-under",
			positional: true,
			plan: &physical.Expr{
				Op: physical.OpLimit, N: 2,
				Children: []*physical.Expr{{
					Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
					Keys: []logical.SortKey{{Col: 1}},
				}},
			},
			want: []datum.Row{row(null, ni(40)), row(ni(1), ni(10))},
		},
		{
			// LIMIT over the input size passes everything through.
			name: "limit-over",
			plan: &physical.Expr{Op: physical.OpLimit, N: 10, Children: []*physical.Expr{scanT1()}},
			want: []datum.Row{
				row(ni(1), ni(10)), row(ni(2), ni(20)), row(ni(3), null), row(null, ni(40)),
			},
		},
		{
			// UNION ALL of an INT and a FLOAT column, then GROUP BY: INT 1 and
			// FLOAT 1.0 widen to the same group key, and the group's
			// representative keeps the first appearance's kind (INT).
			name: "union-widens-group-keys",
			plan: &physical.Expr{
				Op: physical.OpHashAgg,
				Children: []*physical.Expr{{
					Op:        physical.OpConcat,
					Children:  []*physical.Expr{scanT1(), scanT3()},
					OutCols:   []scalar.ColumnID{20},
					InputCols: [][]scalar.ColumnID{{1}, {5}},
				}},
				GroupCols: []scalar.ColumnID{20},
				Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 21}},
			},
			want: []datum.Row{
				row(ni(1), ni(2)), // INT 1 and FLOAT 1.0 fold together
				row(ni(2), ni(1)),
				row(ni(3), ni(1)),
				row(nf(2.5), ni(1)),
				row(null, ni(1)),
			},
		},
		{
			// MIN/MAX over the widened column: MIN is NULL-skipping INT 1 (not
			// FLOAT 1.0 — first smallest wins), MAX is INT 3.
			name: "min-max-over-mixed-kinds",
			plan: &physical.Expr{
				Op: physical.OpHashAgg,
				Children: []*physical.Expr{{
					Op:        physical.OpConcat,
					Children:  []*physical.Expr{scanT1(), scanT3()},
					OutCols:   []scalar.ColumnID{20},
					InputCols: [][]scalar.ColumnID{{1}, {5}},
				}},
				Aggs: []scalar.Agg{
					{Op: scalar.AggMin, Arg: col(20), Out: 21},
					{Op: scalar.AggMax, Arg: col(20), Out: 22},
				},
			},
			want: []datum.Row{row(ni(1), ni(3))},
		},
	}

	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		cases = append(cases,
			confCase{name: fmt.Sprintf("%s-semi-stops-at-first-match", op), plan: stopAtFirstMatch(op, physical.JoinSemi),
				want: []datum.Row{row(ni(1))}},
			confCase{name: fmt.Sprintf("%s-anti-stops-at-first-match", op), plan: stopAtFirstMatch(op, physical.JoinAnti)},
		)
	}

	engines := Engines()
	if len(engines) < 2 {
		t.Fatalf("Engines() = %v, want batch and at least one registered backend", engines)
	}
	for _, tc := range cases {
		conforms := func(t *testing.T, got []datum.Row) {
			t.Helper()
			want := tc.want
			if !tc.positional {
				got = NormalizeRows(got)
				want = NormalizeRows(want)
			}
			if len(got) != len(want) {
				t.Fatalf("rows = %d, want %d\ngot: %v\nwant: %v", len(got), len(want), got, want)
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("row %d width = %d, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("row %d col %d = %v, want %v\ngot: %v", i, j, got[i][j], want[i][j], got)
					}
				}
			}
		}
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.String(), func(t *testing.T) {
				got, err := RunEngine(eng, tc.plan, cat, 0, 0)
				if err != nil {
					t.Fatalf("RunEngine(%v): %v", eng, err)
				}
				conforms(t, got)
			})
		}
		// The row-at-a-time engine this package used to ship conformed too;
		// its recorded answers stay in the table. runEngines holds the batch
		// engine to them exactly — rows, emission order, budget verdicts and
		// analyze counts — and the result must conform like any engine's.
		t.Run(tc.name+"/row", func(t *testing.T) {
			conforms(t, runEngines(t, tc.plan, cat))
		})
	}
}
