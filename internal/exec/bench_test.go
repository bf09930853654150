package exec

import (
	"math/rand"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// benchCatalog builds the synthetic fact/dimension pair the engine
// benchmarks run over: "f" with rows fact rows and "d" with a tenth of that,
// both three int columns (a: 1000 distinct, b: 100 distinct, c: unique).
func benchCatalog(rows int) *catalog.Catalog {
	r := rand.New(rand.NewSource(1))
	c := catalog.New()
	for _, name := range []string{"f", "d"} {
		n := rows
		if name == "d" {
			n = rows / 10
		}
		t := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "a", Type: datum.TypeInt}, {Name: "b", Type: datum.TypeInt}, {Name: "c", Type: datum.TypeInt},
		}}
		for i := 0; i < n; i++ {
			t.Rows = append(t.Rows, datum.Row{
				datum.NewInt(int64(r.Intn(1000))), datum.NewInt(int64(r.Intn(100))), datum.NewInt(int64(i)),
			})
		}
		t.ComputeStats()
		c.Add(t)
	}
	return c
}

// benchPlans returns the per-operator plans the engine benchmarks execute,
// one or more per physical operator. The catalog must come from
// benchCatalog.
func benchPlans() []struct {
	name string
	plan *physical.Expr
} {
	scanF := &physical.Expr{Op: physical.OpScan, Table: "f", Cols: []scalar.ColumnID{1, 2, 3}}
	scanD := &physical.Expr{Op: physical.OpScan, Table: "d", Cols: []scalar.ColumnID{4, 5, 6}}
	filter := &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{scanF},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(50)}}}
	project := &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{filter},
		Projs: []logical.ProjItem{
			{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}},
			{Out: 10, E: &scalar.ColRef{ID: 2}},
		}}
	join := &physical.Expr{Op: physical.OpHashJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, scanD},
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{4}}
	agg := &physical.Expr{Op: physical.OpHashAgg, Children: []*physical.Expr{join},
		GroupCols: []scalar.ColumnID{5},
		Aggs: []scalar.Agg{
			{Op: scalar.AggCountStar, Out: 20},
			{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 3}, Out: 21},
		}}
	// A theta join no hash key can serve, over the filtered fact rows and a
	// 5-row dimension subset: 25k × 5 = 125k candidate pairs.
	dimSubset := &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{scanD},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 6}, R: &scalar.Const{D: datum.NewInt(5)}}}
	nljoin := &physical.Expr{Op: physical.OpNLJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, dimSubset},
		On: &scalar.And{Kids: []scalar.Expr{
			&scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 2}, R: &scalar.ColRef{ID: 5}},
			&scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		}}}
	// The operators that ran row-at-a-time behind adapter shims before every
	// operator was batch-native: a two-key sort and a concat over the
	// filtered fact rows, a merge join on the hash join's keys, and a Limit
	// over the hash join, which pulls one probe row at a time.
	sortOp := &physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{filter},
		Keys: []logical.SortKey{{Col: 2}, {Col: 1, Desc: true}}}
	concat := &physical.Expr{Op: physical.OpConcat, Children: []*physical.Expr{filter, scanD},
		OutCols: []scalar.ColumnID{30, 31}, InputCols: [][]scalar.ColumnID{{1, 2}, {4, 5}}}
	mergejoin := &physical.Expr{Op: physical.OpMergeJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, scanD},
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{4}}
	limit := &physical.Expr{Op: physical.OpLimit, N: 1000, Children: []*physical.Expr{join}}
	return []struct {
		name string
		plan *physical.Expr
	}{
		{"scan", scanF}, {"filter", filter}, {"project", project}, {"join", join}, {"agg", agg},
		{"nljoin", nljoin}, {"sort", sortOp}, {"limit", limit}, {"concat", concat}, {"mergejoin", mergejoin},
	}
}

// BenchmarkEngineOps measures each operator on the batch engine over a
// 50k-row synthetic table; `qtrtest bench -exec` runs the same workload when
// producing BENCH_exec.json.
func BenchmarkEngineOps(b *testing.B) {
	cat := benchCatalog(50000)
	for _, p := range benchPlans() {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunEngine(EngineBatch, p.plan, cat, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
