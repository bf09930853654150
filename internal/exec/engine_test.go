package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// runEngines executes the plan on the batch engine and holds it to the row
// engine this package used to ship, as recorded in the golden data
// (golden_test.go): the same rows in the same emission order, the same
// ErrRowLimit verdict at every rung of workLadder and at the maxRows probe,
// the same work total, and the same per-operator RunAnalyze counts. The
// result is also cross-checked against the reference engine through
// CompareResults when that engine runs the plan.
func runEngines(t *testing.T, plan *physical.Expr, cat *catalog.Catalog) []datum.Row {
	t.Helper()
	want := goldenFor(t, plan)
	got, err := RunEngine(EngineBatch, plan, cat, 0, 0)
	if want.Err != "" {
		if err == nil || err.Error() != want.Err {
			t.Fatalf("batch engine: err = %v, recorded %q", err, want.Err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("batch engine: %v", err)
	}
	requireGoldenRows(t, want, got)
	for i, maxWork := range workLadder {
		rows, err := RunEngine(EngineBatch, plan, cat, 0, maxWork)
		capped := errors.Is(err, ErrRowLimit)
		if err != nil && !capped {
			t.Fatalf("maxWork %d: %v", maxWork, err)
		}
		if capped != want.WorkCapped[i] {
			t.Fatalf("maxWork %d: capped = %v, recorded %v", maxWork, capped, want.WorkCapped[i])
		}
		if !capped {
			requireGoldenRows(t, want, rows)
		}
	}
	if want.MaxRowsCapped != nil {
		_, err := RunEngine(EngineBatch, plan, cat, want.N/2, 0)
		if errors.Is(err, ErrRowLimit) != *want.MaxRowsCapped {
			t.Fatalf("maxRows %d: err = %v, recorded capped = %v", want.N/2, err, *want.MaxRowsCapped)
		}
	}
	if _, err := RunEngine(EngineBatch, plan, cat, 0, want.MinWork); err != nil {
		t.Fatalf("maxWork %d (the recorded work total): %v", want.MinWork, err)
	}
	if want.MinWork > 1 {
		if _, err := RunEngine(EngineBatch, plan, cat, 0, want.MinWork-1); !errors.Is(err, ErrRowLimit) {
			t.Fatalf("maxWork %d (below the recorded work total): err = %v, want ErrRowLimit", want.MinWork-1, err)
		}
	}
	_, stats, err := RunAnalyze(plan, cat)
	if err != nil {
		t.Fatalf("RunAnalyze: %v", err)
	}
	if shape := analyzeShape(stats); shape != want.Analyze {
		t.Fatalf("RunAnalyze counts:\n got  %s\n want %s", shape, want.Analyze)
	}
	if ref, err := RunEngine(EngineRef, plan, cat, 0, 0); err == nil {
		tree, err := Delower(plan)
		if err != nil {
			t.Fatal(err)
		}
		if v, detail := CompareResults(got, RootOrder(plan), ref, TreeOrder(tree)); v == VerdictMismatch {
			t.Fatalf("batch and reference engines disagree: %s", detail)
		}
	}
	return got
}

// requireGoldenRows requires got to be the recorded result, row for row.
func requireGoldenRows(t *testing.T, want goldenRun, got []datum.Row) {
	t.Helper()
	if len(got) != want.N {
		t.Fatalf("%d rows, recorded %d", len(got), want.N)
	}
	if want.Rows != nil {
		enc := encodeRows(got)
		for i := range want.Rows {
			if strings.Join(enc[i], ",") != strings.Join(want.Rows[i], ",") {
				t.Fatalf("row %d = %v, recorded %v", i, enc[i], want.Rows[i])
			}
		}
	}
	if d := digestRows(got); d != want.Digest {
		t.Fatalf("rows digest %s, recorded %s", d, want.Digest)
	}
}

func requireSameRows(t *testing.T, want, got []datum.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d\n%s", len(got), len(want), DiffSummary(want, got))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: width %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d: got %v (kind %v), want %v (kind %v)",
					i, j, got[i][j], got[i][j].K, want[i][j], want[i][j].K)
			}
		}
	}
}

// TestEngineDifferentialHandPlans holds the batch engine to the recorded row
// engine on a hand-built plan per operator and join type.
func TestEngineDifferentialHandPlans(t *testing.T) {
	filterGT15 := func(child *physical.Expr) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpFilter, Children: []*physical.Expr{child},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(15)}},
		}
	}
	project := func(child *physical.Expr) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpProject, Children: []*physical.Expr{child},
			Projs: []logical.ProjItem{
				{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(100)}}},
				{Out: 8, E: &scalar.ColRef{ID: 2}},
			},
		}
	}
	sortBy := func(child *physical.Expr, col scalar.ColumnID, desc bool) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpSort, Children: []*physical.Expr{child},
			Keys: []logical.SortKey{{Col: col, Desc: desc}},
		}
	}
	agg := func(child *physical.Expr, groupBy []scalar.ColumnID, op physical.Op) *physical.Expr {
		return &physical.Expr{
			Op: op, Children: []*physical.Expr{child},
			GroupCols: groupBy,
			Aggs: []scalar.Agg{
				{Op: scalar.AggCountStar, Out: 20},
				{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 2}, Out: 21},
				{Op: scalar.AggMin, Arg: &scalar.ColRef{ID: 2}, Out: 22},
				{Op: scalar.AggMax, Arg: &scalar.ColRef{ID: 2}, Out: 23},
				{Op: scalar.AggAvg, Arg: &scalar.ColRef{ID: 2}, Out: 24},
			},
		}
	}

	plans := map[string]*physical.Expr{
		"scan":            scanT1(),
		"filter":          filterGT15(scanT1()),
		"project":         project(scanT1()),
		"sort":            sortBy(scanT1(), 2, true),
		"limit":           {Op: physical.OpLimit, N: 2, Children: []*physical.Expr{scanT1()}},
		"hashagg":         agg(scanT1(), []scalar.ColumnID{1}, physical.OpHashAgg),
		"sortagg":         agg(scanT1(), []scalar.ColumnID{1}, physical.OpSortAgg),
		"scalaragg":       agg(scanT1(), nil, physical.OpHashAgg),
		"scalaragg-empty": agg(filterGT15(filterGT15(scanT1())), nil, physical.OpHashAgg),
		"concat": {
			Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
			OutCols:   []scalar.ColumnID{30},
			InputCols: [][]scalar.ColumnID{{1}, {3}},
		},
		"agg-over-join": agg(joinPlan(physical.OpHashJoin, physical.JoinInner), []scalar.ColumnID{1}, physical.OpHashAgg),
		"sort-over-join-over-filter": sortBy(&physical.Expr{
			Op: physical.OpHashJoin, JoinType: physical.JoinLeft,
			Children:  []*physical.Expr{filterGT15(scanT1()), scanT2()},
			On:        eqOn(),
			EquiLeft:  []scalar.ColumnID{1},
			EquiRight: []scalar.ColumnID{3},
		}, 4, false),
		"project-over-agg": {
			Op:       physical.OpProject,
			Children: []*physical.Expr{agg(scanT1(), []scalar.ColumnID{1}, physical.OpHashAgg)},
			Projs: []logical.ProjItem{
				{Out: 40, E: &scalar.Arith{Op: scalar.ArithMul, L: &scalar.ColRef{ID: 21}, R: &scalar.Const{D: datum.NewInt(2)}}},
			},
		},
	}
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			plans[fmt.Sprintf("%s-%s", op, jt)] = joinPlan(op, jt)
		}
	}
	plans["mergejoin-inner"] = joinPlan(physical.OpMergeJoin, physical.JoinInner)
	// Residual predicate on top of the equi-key: exercises partial selection
	// inside a join chunk.
	residual := joinPlan(physical.OpHashJoin, physical.JoinLeft)
	residual.On = &scalar.And{Kids: []scalar.Expr{
		eqOn(),
		&scalar.Cmp{Op: scalar.CmpNE, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewString("uno")}},
	}}
	plans["hashjoin-residual"] = residual
	plans["limit-project-concat"] = limitProjectConcat()

	cat := testCatalog()
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { runEngines(t, plan, cat) })
	}
}

// TestEngineChunkSpanningJoin drives the batch hash and nested-loops joins
// past their chunk size so probe rows span chunk boundaries: 200 probe rows
// × 300 matching build rows is 60000 candidate pairs, far beyond one chunk
// (chunkCells over the datums gathered per pair), so most rows' candidate
// lists are split mid-row and the carried rowMatched / resume-cursor state is
// what keeps semi/anti/left fallout correct. The left side interleaves
// never-matching rows with match-heavy ones, so fallout lands between
// spanning rows; the build side is also run as a filter (owned build
// vectors rather than the bare-scan alias) and as an empty input.
func TestEngineChunkSpanningJoin(t *testing.T) {
	c := catalog.New()
	mk := func(name string, rows int, key func(i int) datum.Datum) *catalog.Table {
		tbl := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "k", Type: datum.TypeInt}, {Name: "v", Type: datum.TypeInt},
		}}
		for i := 0; i < rows; i++ {
			tbl.Rows = append(tbl.Rows, datum.Row{key(i), datum.NewInt(int64(i))})
		}
		tbl.ComputeStats()
		return tbl
	}
	// Left: mostly the hot key 7, with interleaved no-match keys and NULLs so
	// anti/left fallout rows appear between match-heavy rows.
	c.Add(mk("big_l", 200, func(i int) datum.Datum {
		switch {
		case i%17 == 0:
			return datum.NewInt(5) // never matches
		case i%23 == 0:
			return datum.Null
		default:
			return datum.NewInt(7)
		}
	}))
	c.Add(mk("big_r", 300, func(i int) datum.Datum {
		if i%31 == 0 {
			return datum.Null
		}
		return datum.NewInt(7)
	}))
	scanL := &physical.Expr{Op: physical.OpScan, Table: "big_l", Cols: []scalar.ColumnID{1, 2}}
	scanR := &physical.Expr{Op: physical.OpScan, Table: "big_r", Cols: []scalar.ColumnID{3, 4}}
	vAbove := func(n int64) *physical.Expr {
		return &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{scanR},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewInt(n)}}}
	}
	builds := []struct {
		name string
		plan *physical.Expr
	}{{"scan", scanR}, {"filtered", vAbove(40)}, {"empty", vAbove(1000)}}
	on := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}
	// A residual that passes about half the candidates, so selection vectors
	// inside chunks are partial rather than all-or-nothing.
	residual := &scalar.And{Kids: []scalar.Expr{
		on,
		&scalar.Cmp{Op: scalar.CmpLT,
			L: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 2}, R: &scalar.ColRef{ID: 4}},
			R: &scalar.Const{D: datum.NewInt(250)}},
	}}
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		for _, build := range builds {
			for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
				for _, pred := range []struct {
					name string
					on   scalar.Expr
				}{{"equi", on}, {"residual", residual}} {
					// The hash join over the bare scan keeps the subtest names
					// it had before the other variants were added.
					name := fmt.Sprintf("%s-%s", jt, pred.name)
					if op != physical.OpHashJoin || build.name != "scan" {
						name = fmt.Sprintf("%s-%s-%s", op, build.name, name)
					}
					t.Run(name, func(t *testing.T) {
						plan := &physical.Expr{
							Op: op, JoinType: jt,
							Children:  []*physical.Expr{scanL, build.plan},
							On:        pred.on,
							EquiLeft:  []scalar.ColumnID{1},
							EquiRight: []scalar.ColumnID{3},
						}
						rows := runEngines(t, plan, c)
						if jt == physical.JoinInner && pred.name == "equi" && build.name == "scan" && len(rows) <= chunkCells {
							t.Fatalf("test is not chunk-spanning: %d rows", len(rows))
						}
						if build.name == "empty" && (jt == physical.JoinLeft || jt == physical.JoinAnti) && len(rows) != 200 {
							t.Fatalf("empty build side: %d rows, want every probe row as fallout", len(rows))
						}
					})
				}
			}
		}
	}
}

// planGen builds random plans over fresh random tables, assigning globally
// unique column ids per scan. All columns are ints, so every generated
// expression is type-correct and scalar errors cannot make the engines
// diverge on error sites.
type planGen struct {
	r       *rand.Rand
	cat     *catalog.Catalog
	nextCol scalar.ColumnID
	nextTbl int
}

func (g *planGen) scan() *physical.Expr {
	name := fmt.Sprintf("g%d", g.nextTbl)
	tbl := randomTable(name, 3, 8+g.r.Intn(30), g.r.Int63())
	g.cat.Add(tbl)
	g.nextTbl++
	cols := make([]scalar.ColumnID, len(tbl.Columns))
	for i := range cols {
		cols[i] = g.nextCol
		g.nextCol++
	}
	return &physical.Expr{Op: physical.OpScan, Table: name, Cols: cols}
}

func (g *planGen) operand(cols []scalar.ColumnID) scalar.Expr {
	if g.r.Intn(3) == 0 {
		return &scalar.Const{D: datum.NewInt(int64(g.r.Intn(8)))}
	}
	return &scalar.ColRef{ID: cols[g.r.Intn(len(cols))]}
}

func (g *planGen) pred(cols []scalar.ColumnID, depth int) scalar.Expr {
	if depth > 0 {
		switch g.r.Intn(5) {
		case 0:
			return &scalar.And{Kids: []scalar.Expr{g.pred(cols, depth-1), g.pred(cols, depth-1)}}
		case 1:
			return &scalar.Or{Kids: []scalar.Expr{g.pred(cols, depth-1), g.pred(cols, depth-1)}}
		case 2:
			return &scalar.Not{Kid: g.pred(cols, depth-1)}
		}
	}
	if g.r.Intn(6) == 0 {
		return &scalar.IsNull{Kid: g.operand(cols)}
	}
	ops := []scalar.CmpOp{scalar.CmpEQ, scalar.CmpNE, scalar.CmpLT, scalar.CmpLE, scalar.CmpGT, scalar.CmpGE}
	return &scalar.Cmp{Op: ops[g.r.Intn(len(ops))], L: g.operand(cols), R: g.operand(cols)}
}

func (g *planGen) gen(depth int) *physical.Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		return g.scan()
	}
	child := g.gen(depth - 1)
	cols := child.OutputCols()
	switch g.r.Intn(7) {
	case 0:
		return &physical.Expr{
			Op: physical.OpFilter, Children: []*physical.Expr{child},
			Filter: g.pred(cols, 2),
		}
	case 1:
		n := 1 + g.r.Intn(3)
		projs := make([]logical.ProjItem, n)
		arith := []scalar.ArithOp{scalar.ArithAdd, scalar.ArithSub, scalar.ArithMul}
		for i := range projs {
			var e scalar.Expr
			if g.r.Intn(2) == 0 {
				e = g.operand(cols)
			} else {
				e = &scalar.Arith{Op: arith[g.r.Intn(len(arith))], L: g.operand(cols), R: g.operand(cols)}
			}
			projs[i] = logical.ProjItem{Out: g.nextCol, E: e}
			g.nextCol++
		}
		return &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{child}, Projs: projs}
	case 2:
		right := g.gen(depth - 1)
		rcols := right.OutputCols()
		jts := []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti}
		jt := jts[g.r.Intn(len(jts))]
		ops := []physical.Op{physical.OpHashJoin, physical.OpNLJoin}
		if jt == physical.JoinInner {
			ops = append(ops, physical.OpMergeJoin)
		}
		lk := cols[g.r.Intn(len(cols))]
		rk := rcols[g.r.Intn(len(rcols))]
		var on scalar.Expr = &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: lk}, R: &scalar.ColRef{ID: rk}}
		if g.r.Intn(3) == 0 {
			on = &scalar.And{Kids: []scalar.Expr{on, g.pred(append(append([]scalar.ColumnID{}, cols...), rcols...), 1)}}
		}
		return &physical.Expr{
			Op: ops[g.r.Intn(len(ops))], JoinType: jt,
			Children:  []*physical.Expr{child, right},
			On:        on,
			EquiLeft:  []scalar.ColumnID{lk},
			EquiRight: []scalar.ColumnID{rk},
		}
	case 3:
		aggOps := []scalar.AggOp{scalar.AggCount, scalar.AggSum, scalar.AggMin, scalar.AggMax, scalar.AggAvg}
		n := 1 + g.r.Intn(3)
		aggs := make([]scalar.Agg, 0, n+1)
		aggs = append(aggs, scalar.Agg{Op: scalar.AggCountStar, Out: g.nextCol})
		g.nextCol++
		for i := 0; i < n; i++ {
			aggs = append(aggs, scalar.Agg{
				Op: aggOps[g.r.Intn(len(aggOps))], Arg: g.operand(cols), Out: g.nextCol,
			})
			g.nextCol++
		}
		var groupBy []scalar.ColumnID
		if g.r.Intn(4) != 0 {
			groupBy = []scalar.ColumnID{cols[g.r.Intn(len(cols))]}
		}
		op := physical.OpHashAgg
		if g.r.Intn(2) == 0 {
			op = physical.OpSortAgg
		}
		return &physical.Expr{Op: op, Children: []*physical.Expr{child}, GroupCols: groupBy, Aggs: aggs}
	case 4:
		keys := []logical.SortKey{{Col: cols[g.r.Intn(len(cols))], Desc: g.r.Intn(2) == 0}}
		return &physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{child}, Keys: keys}
	case 5:
		return &physical.Expr{Op: physical.OpLimit, N: int64(1 + g.r.Intn(20)), Children: []*physical.Expr{child}}
	default:
		right := g.gen(depth - 1)
		rcols := right.OutputCols()
		w := len(cols)
		if len(rcols) < w {
			w = len(rcols)
		}
		out := make([]scalar.ColumnID, w)
		for i := range out {
			out[i] = g.nextCol
			g.nextCol++
		}
		return &physical.Expr{
			Op: physical.OpConcat, Children: []*physical.Expr{child, right},
			OutCols:   out,
			InputCols: [][]scalar.ColumnID{cols[:w], rcols[:w]},
		}
	}
}

// TestEngineDifferentialRandomPlans holds the batch engine to the recorded
// row engine over random operator trees; runEngines also re-runs each plan
// under the ladder of work budgets and the maxRows probe and requires the
// recorded verdicts.
func TestEngineDifferentialRandomPlans(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &planGen{r: rand.New(rand.NewSource(int64(seed))), cat: catalog.New(), nextCol: 1}
			runEngines(t, g.gen(3), g.cat)
		})
	}
}

// TestSumAvgNonNumericErrors pins the aggregate-typing fix: SUM and AVG over
// a non-numeric input must fail execution instead of silently returning 0.0.
func TestSumAvgNonNumericErrors(t *testing.T) {
	cat := testCatalog()
	for _, op := range []scalar.AggOp{scalar.AggSum, scalar.AggAvg} {
		plan := &physical.Expr{
			Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
			Aggs: []scalar.Agg{{Op: op, Arg: &scalar.ColRef{ID: 4}, Out: 10}},
		}
		_, err := Run(plan, cat)
		if err == nil {
			t.Fatalf("%s over strings succeeded, want error", op)
		}
		if !strings.Contains(err.Error(), "non-numeric") {
			t.Fatalf("%s error = %q, want non-numeric typing error", op, err)
		}
	}
	// Grouped variant: the bad value sits in one group of several.
	plan := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
		GroupCols: []scalar.ColumnID{3},
		Aggs:      []scalar.Agg{{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 4}, Out: 10}},
	}
	if _, err := Run(plan, cat); err == nil {
		t.Fatal("grouped SUM over strings succeeded, want error")
	}
}

// TestMinMaxMixedKinds pins MIN/MAX semantics over mixed-kind inputs: they
// stay legal and order values by datum.TotalCompare, the same total order the
// sort operator and the comparison oracle use.
func TestMinMaxMixedKinds(t *testing.T) {
	cat := testCatalog()
	// UNION ALL of t1.a (ints + NULL) and t2.y (strings) produces one
	// mixed-kind column.
	concat := &physical.Expr{
		Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
		OutCols:   []scalar.ColumnID{50},
		InputCols: [][]scalar.ColumnID{{1}, {4}},
	}
	plan := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{concat},
		Aggs: []scalar.Agg{
			{Op: scalar.AggMin, Arg: &scalar.ColRef{ID: 50}, Out: 51},
			{Op: scalar.AggMax, Arg: &scalar.ColRef{ID: 50}, Out: 52},
		},
	}
	rows := runEngines(t, plan, cat)
	if len(rows) != 1 {
		t.Fatalf("scalar agg rows = %d", len(rows))
	}
	inputs, err := Run(concat, cat)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, wantMax := datum.Null, datum.Null
	for _, r := range inputs {
		d := r[0]
		if d.IsNull() {
			continue
		}
		if wantMin.IsNull() || datum.TotalCompare(d, wantMin) < 0 {
			wantMin = d
		}
		if wantMax.IsNull() || datum.TotalCompare(d, wantMax) > 0 {
			wantMax = d
		}
	}
	if rows[0][0] != wantMin || rows[0][1] != wantMax {
		t.Fatalf("MIN/MAX = %v/%v, want %v/%v by TotalCompare", rows[0][0], rows[0][1], wantMin, wantMax)
	}
}

// TestMergeJoinNonInnerRejected pins that a non-inner merge join is
// rejected by the one plan compiler, with or without a work budget and
// under RunAnalyze.
func TestMergeJoinNonInnerRejected(t *testing.T) {
	cat := testCatalog()
	plan := joinPlan(physical.OpMergeJoin, physical.JoinLeft)
	if _, err := RunEngine(EngineBatch, plan, cat, 0, 1000); err == nil || errors.Is(err, ErrRowLimit) {
		t.Errorf("with budget: err = %v, want merge-join build error", err)
	}
	if _, err := RunEngine(EngineBatch, plan, cat, 0, 0); err == nil {
		t.Error("accepted a non-inner merge join")
	}
	if _, _, err := RunAnalyze(plan, cat); err == nil {
		t.Error("RunAnalyze accepted a non-inner merge join")
	}
}

// TestUnknownEngineRejected pins that an engine ID naming neither the batch
// engine nor a registered backend fails instead of silently running the
// batch engine under another name — including 1, the retired row engine's
// ID — and that such IDs render as engine(N) rather than as a real name.
func TestUnknownEngineRejected(t *testing.T) {
	cat := testCatalog()
	for _, eng := range []Engine{1, 99, -1} {
		if _, err := RunEngine(eng, scanT1(), cat, 0, 0); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("RunEngine(%d): err = %v, want unknown engine", int(eng), err)
		}
		if got, want := eng.String(), fmt.Sprintf("engine(%d)", int(eng)); got != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(eng), got, want)
		}
	}
	if _, err := EngineByName("row"); err == nil {
		t.Error(`EngineByName("row") resolved; the row engine is gone`)
	}
	for _, eng := range Engines() {
		if _, err := RunEngine(eng, scanT1(), cat, 0, 0); err != nil {
			t.Errorf("RunEngine(%v): %v", eng, err)
		}
	}
}
