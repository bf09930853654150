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

// demandCatalog holds the tables the Limit, merge-join and multi-key sort
// golden plans run over:
//
//	p(k, v):  probe rows matching 0, 1, 3, 0 (NULL key), 3 and 1 rows of b
//	b(k, w):  (20,'a') (30,'b') (30,'c') (30,'d') (NULL,'e') (40,'f')
//	mi(k, v): INT keys with duplicate groups and NULLs
//	mf(k, s): FLOAT keys with duplicate groups and NULLs
//	ms(a, b, c): NULLs and ties in a and b; c is the row number
//	big(k):   2500 rows, k = i mod 7, so Limits cross batch boundaries
func demandCatalog() *catalog.Catalog {
	ni, nf, ns, null := datum.NewInt, datum.NewFloat, datum.NewString, datum.Null
	c := catalog.New()
	add := func(name string, cols []catalog.Column, rows []datum.Row) {
		t := &catalog.Table{Name: name, Columns: cols, Rows: rows}
		t.ComputeStats()
		c.Add(t)
	}
	intCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: datum.TypeInt} }
	add("p", []catalog.Column{intCol("k"), intCol("v")}, []datum.Row{
		{ni(10), ni(1)}, {ni(20), ni(2)}, {ni(30), ni(3)}, {null, ni(4)}, {ni(30), ni(5)}, {ni(20), ni(6)},
	})
	add("b", []catalog.Column{intCol("k"), {Name: "w", Type: datum.TypeString}}, []datum.Row{
		{ni(20), ns("a")}, {ni(30), ns("b")}, {ni(30), ns("c")}, {ni(30), ns("d")}, {null, ns("e")}, {ni(40), ns("f")},
	})
	add("mi", []catalog.Column{intCol("k"), intCol("v")}, []datum.Row{
		{ni(3), ni(1)}, {ni(1), ni(2)}, {null, ni(3)}, {ni(1), ni(4)}, {ni(2), ni(5)},
		{ni(3), ni(6)}, {null, ni(7)}, {ni(5), ni(8)}, {ni(1), ni(9)},
	})
	add("mf", []catalog.Column{{Name: "k", Type: datum.TypeFloat}, {Name: "s", Type: datum.TypeString}}, []datum.Row{
		{nf(1.0), ns("x1")}, {nf(3.0), ns("x2")}, {null, ns("x3")}, {nf(1.0), ns("x4")},
		{nf(2.5), ns("x5")}, {nf(3.0), ns("x6")}, {nf(1.0), ns("x7")}, {null, ns("x8")},
	})
	var ms []datum.Row
	for i, ab := range [][2]datum.Datum{
		{ni(2), null}, {ni(1), ni(5)}, {null, ni(3)}, {ni(2), ni(7)}, {ni(1), null},
		{null, null}, {ni(2), ni(7)}, {ni(1), ni(5)}, {null, ni(3)}, {ni(3), ni(1)},
	} {
		ms = append(ms, datum.Row{ab[0], ab[1], ni(int64(i))})
	}
	add("ms", []catalog.Column{intCol("a"), intCol("b"), intCol("c")}, ms)
	var big []datum.Row
	for i := 0; i < 2500; i++ {
		big = append(big, datum.Row{ni(int64(i % 7))})
	}
	add("big", []catalog.Column{intCol("k")}, big)
	return c
}

// Column ids in demandCatalog plans: p -> k=61 v=62; b -> k=63 w=64;
// mi -> k=65 v=66; mf -> k=67 s=68; big -> k=69 (a second big scan: 70);
// ms -> a=74 b=75 c=76.
func scanOfTable(table string, cols ...scalar.ColumnID) *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: table, Cols: cols}
}

func limitOf(n int64, child *physical.Expr) *physical.Expr {
	return &physical.Expr{Op: physical.OpLimit, N: n, Children: []*physical.Expr{child}}
}

func sortOf(child *physical.Expr, keys ...logical.SortKey) *physical.Expr {
	return &physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{child}, Keys: keys}
}

// TestLimitUnderJoin runs Limits whose values land before, inside and after
// the output of probe rows that match 0, 1 and 3 build rows, over every join
// operator and type, with the probe side a bare scan or a filter and the join
// predicate the equi-key alone or with a residual. runEngines holds each plan
// to the row engine's recorded rows, work total and per-operator row counts,
// which pin how many probe rows a capped join may pull.
func TestLimitUnderJoin(t *testing.T) {
	cat := demandCatalog()
	on := cmp(scalar.CmpEQ, col(61), col(63))
	residual := &scalar.And{Kids: []scalar.Expr{on, cmp(scalar.CmpNE, col(64), &scalar.Const{D: datum.NewString("c")})}}
	type variant struct {
		name  string
		probe *physical.Expr
		on    scalar.Expr
	}
	variants := []variant{
		{"scan", scanOfTable("p", 61, 62), on},
		{"filtered-residual", filterOf(scanOfTable("p", 61, 62), cmp(scalar.CmpNE, col(62), intc(5))), residual},
	}
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			if op == physical.OpMergeJoin && jt != physical.JoinInner {
				continue
			}
			for _, v := range variants {
				for _, n := range []int64{0, 1, 3, 4, 6, 9} {
					t.Run(fmt.Sprintf("%s-%s-%s-limit%d", op, jt, v.name, n), func(t *testing.T) {
						join := &physical.Expr{
							Op: op, JoinType: jt,
							Children:  []*physical.Expr{v.probe, scanOfTable("b", 63, 64)},
							On:        v.on,
							EquiLeft:  []scalar.ColumnID{61},
							EquiRight: []scalar.ColumnID{63},
						}
						runEngines(t, limitOf(n, join), cat)
					})
				}
			}
		}
	}
	// A filter between the Limit and the join forwards the Limit's demand.
	t.Run("limit-filter-join", func(t *testing.T) {
		join := &physical.Expr{
			Op: physical.OpHashJoin, JoinType: physical.JoinLeft,
			Children:  []*physical.Expr{scanOfTable("p", 61, 62), scanOfTable("b", 63, 64)},
			On:        on,
			EquiLeft:  []scalar.ColumnID{61},
			EquiRight: []scalar.ColumnID{63},
		}
		runEngines(t, limitOf(3, filterOf(join, &scalar.IsNull{Kid: col(64)})), cat)
	})
}

// TestLimitDemand covers the blocking and pass-through operators under a
// Limit: a Limit 0 still pays for the drain its Sort child does in Open, a
// Concat opens every branch, Limits cross batch boundaries, and Limits nest.
func TestLimitDemand(t *testing.T) {
	cat := demandCatalog()
	bigK := scanOfTable("big", 69)
	join := &physical.Expr{
		Op: physical.OpHashJoin, JoinType: physical.JoinInner,
		Children:  []*physical.Expr{scanOfTable("p", 61, 62), scanOfTable("b", 63, 64)},
		On:        cmp(scalar.CmpEQ, col(61), col(63)),
		EquiLeft:  []scalar.ColumnID{61},
		EquiRight: []scalar.ColumnID{63},
	}
	concat := func(l, r *physical.Expr, lc, rc scalar.ColumnID) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpConcat, Children: []*physical.Expr{l, r},
			OutCols: []scalar.ColumnID{80}, InputCols: [][]scalar.ColumnID{{lc}, {rc}},
		}
	}
	plans := map[string]*physical.Expr{
		"limit0-sort":        limitOf(0, sortOf(scanOfTable("p", 61, 62), logical.SortKey{Col: 62, Desc: true})),
		"limit0-sort-join":   limitOf(0, sortOf(join, logical.SortKey{Col: 64})),
		"limit0-agg":         limitOf(0, &physical.Expr{Op: physical.OpHashAgg, Children: []*physical.Expr{join}, Aggs: []scalar.Agg{{Op: scalar.AggCountStar, Out: 81}}}),
		"limit1-concat-sort": limitOf(1, concat(scanOfTable("p", 61, 62), sortOf(join, logical.SortKey{Col: 62}), 61, 62)),
		"limit2-sort":        limitOf(2, sortOf(bigK, logical.SortKey{Col: 69, Desc: true})),
		"limit1500-filter":   limitOf(1500, filterOf(bigK, cmp(scalar.CmpNE, col(69), intc(3)))),
		"limit1030-concat":   limitOf(1030, concat(bigK, scanOfTable("big", 70), 69, 70)),
		"limit3000-concat":   limitOf(3000, concat(bigK, scanOfTable("big", 70), 69, 70)),
		"limit-over-limit":   limitOf(5, limitOf(1200, filterOf(bigK, cmp(scalar.CmpGT, col(69), intc(4))))),
		"limit-build-side": {
			Op: physical.OpNLJoin, JoinType: physical.JoinInner,
			Children: []*physical.Expr{scanOfTable("p", 61, 62), limitOf(2, scanOfTable("b", 63, 64))},
			On:       cmp(scalar.CmpEQ, col(61), col(63)),
		},
		"limit-probe-side": {
			Op: physical.OpHashJoin, JoinType: physical.JoinLeft,
			Children:  []*physical.Expr{limitOf(4, scanOfTable("p", 61, 62)), scanOfTable("b", 63, 64)},
			On:        cmp(scalar.CmpEQ, col(61), col(63)),
			EquiLeft:  []scalar.ColumnID{61},
			EquiRight: []scalar.ColumnID{63},
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { runEngines(t, plan, cat) })
	}
}

// TestMergeJoinMixedKeys runs merge joins over an INT and a FLOAT key column,
// both with NULLs and duplicate key groups, in both side orders, with one and
// two keys and with a residual: the emission order must be the row engine's
// key-group cross products in sorted key order.
func TestMergeJoinMixedKeys(t *testing.T) {
	cat := demandCatalog()
	mi, mf := scanOfTable("mi", 65, 66), scanOfTable("mf", 67, 68)
	merge := func(l, r *physical.Expr, on scalar.Expr, el, er []scalar.ColumnID) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpMergeJoin, JoinType: physical.JoinInner,
			Children: []*physical.Expr{l, r}, On: on, EquiLeft: el, EquiRight: er,
		}
	}
	eq := cmp(scalar.CmpEQ, col(65), col(67))
	twoKeys := &scalar.And{Kids: []scalar.Expr{eq, cmp(scalar.CmpEQ, col(66), col(67))}}
	plans := map[string]*physical.Expr{
		"int-float":  merge(mi, mf, eq, []scalar.ColumnID{65}, []scalar.ColumnID{67}),
		"float-int":  merge(mf, mi, eq, []scalar.ColumnID{67}, []scalar.ColumnID{65}),
		"two-keys":   merge(mi, mf, twoKeys, []scalar.ColumnID{65, 66}, []scalar.ColumnID{67, 67}),
		"residual":   merge(mi, mf, &scalar.And{Kids: []scalar.Expr{eq, cmp(scalar.CmpGT, col(66), intc(3))}}, []scalar.ColumnID{65}, []scalar.ColumnID{67}),
		"self":       merge(mi, scanOfTable("mi", 71, 72), cmp(scalar.CmpEQ, col(65), col(71)), []scalar.ColumnID{65}, []scalar.ColumnID{71}),
		"over-limit": merge(limitOf(5, mi), mf, eq, []scalar.ColumnID{65}, []scalar.ColumnID{67}),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { runEngines(t, plan, cat) })
	}
}

// TestSortMultiKeyDesc sorts ms over two keys with NULLs in both and ties
// on both, in every direction combination: NULLs sort first ascending and
// last descending, and rows tied on every key keep their input order (c).
func TestSortMultiKeyDesc(t *testing.T) {
	cat := demandCatalog()
	for _, dirs := range [][2]bool{{true, false}, {true, true}, {false, true}} {
		t.Run(fmt.Sprintf("a-desc=%v-b-desc=%v", dirs[0], dirs[1]), func(t *testing.T) {
			runEngines(t, sortOf(scanOfTable("ms", 74, 75, 76),
				logical.SortKey{Col: 74, Desc: dirs[0]}, logical.SortKey{Col: 75, Desc: dirs[1]}), cat)
		})
	}
	t.Run("float-string-desc", func(t *testing.T) {
		runEngines(t, sortOf(scanOfTable("mf", 67, 68),
			logical.SortKey{Col: 67, Desc: true}, logical.SortKey{Col: 68, Desc: true}), cat)
	})
}

// limitProjectConcat is Limit 1 over Project(c50 * 2) over Concat(t1.a,
// t2.y) on testCatalog: the first row doubles to 2, and every t2 row would
// fail with arithmetic on a string. A Limit must stop evaluating at N.
func limitProjectConcat() *physical.Expr {
	return limitOf(1, &physical.Expr{
		Op: physical.OpProject,
		Children: []*physical.Expr{{
			Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
			OutCols: []scalar.ColumnID{50}, InputCols: [][]scalar.ColumnID{{1}, {4}},
		}},
		Projs: []logical.ProjItem{{Out: 51, E: &scalar.Arith{Op: scalar.ArithMul, L: col(50), R: intc(2)}}},
	})
}

// TestLimitStopsEvaluatingAtN pins that a Limit's outcome does not depend
// on the work budget: the plan returns [[2]] with no budget and with one,
// because no row past the first is ever projected. A join under a Limit
// likewise stops at the last pair the Limit takes: in stopAtFirstMatch's
// inner and left joins the first candidate passes and the second raises an
// arithmetic error, so Limit 1 succeeds, while Limit 2 fails and so does
// Limit 1 over a filter that rejects the first pair.
func TestLimitStopsEvaluatingAtN(t *testing.T) {
	cat := testCatalog()
	for _, maxWork := range []int64{0, 1000} {
		rows, err := RunEngine(EngineBatch, limitProjectConcat(), cat, 0, maxWork)
		if err != nil {
			t.Fatalf("maxWork %d: %v", maxWork, err)
		}
		if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != datum.NewInt(2) {
			t.Fatalf("maxWork %d: rows = %v, want [[2]]", maxWork, rows)
		}
	}
	conf := confCatalog()
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft} {
			join := stopAtFirstMatch(op, jt)
			rows, err := Run(limitOf(1, join), conf)
			if err != nil || len(rows) != 1 {
				t.Errorf("%s %s limit 1: rows = %v, err = %v, want one row", op, jt, rows, err)
			}
			if _, err := Run(limitOf(2, join), conf); err == nil {
				t.Errorf("%s %s limit 2: succeeded, want the second candidate's error", op, jt)
			}
			rejectFirst := filterOf(join, &scalar.Not{Kid: &scalar.IsNull{Kid: col(8)}})
			if _, err := Run(limitOf(1, rejectFirst), conf); err == nil {
				t.Errorf("%s %s limit 1 over a filter: succeeded, want the second candidate's error", op, jt)
			}
		}
	}
}
