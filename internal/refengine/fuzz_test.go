package refengine_test

import (
	"errors"
	"fmt"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/refengine"
	"qtrtest/internal/scalar"
)

// Budgets for both sides of the differential: tight enough that a chain of
// nested-loop joins over the tiny catalog cannot run away, loose enough that
// ordinary programs complete. A trip on either side skips the comparison —
// the budget-parity contract (DESIGN.md §15) promises only that trips never
// flip a verdict, not that both engines trip together.
const (
	fuzzMaxRows = 4096
	fuzzMaxWork = 1 << 16
)

// FuzzRefEngineDiff is the native differential fuzz target: an arbitrary
// byte program builds a random logical tree over a tiny fixed TPC-H catalog,
// which is then evaluated by the reference interpreter (on the tree) and by
// the production batch engine (on the canonical lowering of the same tree).
// Under result normalization the two must agree on every program. The
// builder is type-safe by construction — arithmetic and SUM/AVG are only
// applied to INT columns — so neither side can hit a runtime type error and
// any error besides a budget trip fails the target.
func FuzzRefEngineDiff(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 2, 1, 3, 2})
	f.Add([]byte{3, 5, 0, 0, 4, 1, 1, 6})
	f.Add([]byte{7, 3, 3, 9, 250, 11, 0, 42, 5, 5})
	f.Add([]byte{2, 6, 1, 6, 3, 6, 5, 8, 8, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 9, 2, 9, 4, 7, 7, 0, 0, 255, 128, 64, 32, 16})
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.01, Seed: 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		md := logical.NewMetadata(cat)
		tree := buildDiffTree(md, prog)
		if tree == nil {
			return
		}
		refRows, refErr := refengine.Eval(tree, cat, refengine.Limits{MaxRows: fuzzMaxRows, MaxWork: fuzzMaxWork})
		plan := lowerCanonical(tree)
		batchRows, batchErr := exec.RunEngine(exec.EngineBatch, plan, cat, fuzzMaxRows, fuzzMaxWork)
		if errors.Is(refErr, refengine.ErrBudget) || errors.Is(batchErr, exec.ErrRowLimit) {
			return
		}
		if refErr != nil || batchErr != nil {
			t.Fatalf("engine error on a type-safe tree: ref=%v batch=%v\ntree:\n%s", refErr, batchErr, tree)
		}
		verdict, detail := exec.CompareResults(batchRows, exec.RootOrder(plan), refRows, exec.TreeOrder(tree))
		if verdict == exec.VerdictMismatch {
			t.Fatalf("ref and batch engines disagree: %s\ntree:\n%s", detail, tree)
		}
	})
}

// buildDiffTree interprets prog as a construction script over the catalog:
// the first byte picks a base table, then every pair of bytes wraps the tree
// in one more operator. It mirrors the sqlgen fuzz builder but covers the
// full logical vocabulary the reference engine implements — all four join
// variants, UNION ALL, every aggregate, arithmetic projections — while
// keeping every expression well-typed (numeric operations only on INT
// columns).
func buildDiffTree(md *logical.Metadata, prog []byte) *logical.Expr {
	tables := md.Catalog().TableNames()
	if len(prog) == 0 || len(tables) == 0 {
		return nil
	}
	scan := func(b byte) *logical.Expr {
		e, err := md.AddTable(tables[int(b)%len(tables)])
		if err != nil {
			return nil
		}
		return e
	}
	intCols := func(cols []scalar.ColumnID) []scalar.ColumnID {
		var out []scalar.ColumnID
		for _, c := range cols {
			if md.Column(c).Type == datum.TypeInt {
				out = append(out, c)
			}
		}
		return out
	}
	tree := scan(prog[0])
	if tree == nil {
		return nil
	}
	prog = prog[1:]
	for len(prog) >= 2 {
		op, arg := prog[0], prog[1]
		prog = prog[2:]
		cols := tree.OutputCols()
		if len(cols) == 0 {
			break
		}
		pick := cols[int(arg)%len(cols)]
		switch op % 9 {
		case 0: // filter on one output column
			cmpOp := []scalar.CmpOp{scalar.CmpGT, scalar.CmpLT, scalar.CmpEQ, scalar.CmpNE}[int(arg)%4]
			tree = &logical.Expr{
				Op:       logical.OpSelect,
				Filter:   &scalar.Cmp{Op: cmpOp, L: &scalar.ColRef{ID: pick}, R: &scalar.Const{D: datum.NewInt(int64(arg))}},
				Children: []*logical.Expr{tree},
			}
		case 1: // project a prefix, plus an arithmetic column when an INT exists
			n := 1 + int(arg)%len(cols)
			projs := make([]logical.ProjItem, 0, n+1)
			for i := 0; i < n; i++ {
				projs = append(projs, logical.ProjItem{Out: cols[i], E: &scalar.ColRef{ID: cols[i]}})
			}
			if ints := intCols(cols); len(ints) > 0 {
				src := ints[int(arg)%len(ints)]
				out := md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})
				projs = append(projs, logical.ProjItem{
					Out: out,
					E:   &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: src}, R: &scalar.Const{D: datum.NewInt(int64(arg))}},
				})
			}
			tree = &logical.Expr{Op: logical.OpProject, Projs: projs, Children: []*logical.Expr{tree}}
		case 2: // group by one column with the full aggregate set over an INT
			aggs := []scalar.Agg{{Op: scalar.AggCountStar, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})}}
			if ints := intCols(cols); len(ints) > 0 {
				src := &scalar.ColRef{ID: ints[int(arg)%len(ints)]}
				aggs = append(aggs,
					scalar.Agg{Op: scalar.AggSum, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
					scalar.Agg{Op: scalar.AggMin, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
					scalar.Agg{Op: scalar.AggMax, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
					scalar.Agg{Op: scalar.AggAvg, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeFloat})},
					scalar.Agg{Op: scalar.AggCount, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
				)
			}
			var groupCols []scalar.ColumnID
			if arg%3 != 0 { // every third grouping is a scalar aggregate
				groupCols = []scalar.ColumnID{pick}
			}
			tree = &logical.Expr{
				Op: logical.OpGroupBy, GroupCols: groupCols, Aggs: aggs,
				Children: []*logical.Expr{tree},
			}
		case 3: // sort on one column
			tree = &logical.Expr{
				Op:       logical.OpSort,
				Keys:     []logical.SortKey{{Col: pick, Desc: arg%2 == 1}},
				Children: []*logical.Expr{tree},
			}
		case 4: // limit
			tree = &logical.Expr{Op: logical.OpLimit, N: int64(arg), Children: []*logical.Expr{tree}}
		case 5, 6, 7: // join variants against a fresh base table
			other := scan(arg)
			if other == nil {
				continue
			}
			oc := other.OutputCols()
			jop := []logical.Op{logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin}[int(op)%4]
			tree = &logical.Expr{
				Op:       jop,
				On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: pick}, R: &scalar.ColRef{ID: oc[int(arg)%len(oc)]}},
				Children: []*logical.Expr{tree, other},
			}
		case 8: // union the tree with a second scan of compatible width
			other := scan(arg)
			if other == nil {
				continue
			}
			oc := other.OutputCols()
			n := len(cols)
			if len(oc) < n {
				n = len(oc)
			}
			// Pair only positions whose branch types agree, so the union
			// column's declared type is truthful and downstream arithmetic
			// stays well-typed.
			var outCols, in0, in1 []scalar.ColumnID
			for i := 0; i < n; i++ {
				if md.Column(cols[i]).Type != md.Column(oc[i]).Type {
					continue
				}
				outCols = append(outCols, md.AddColumn(logical.ColumnMeta{Type: md.Column(cols[i]).Type}))
				in0, in1 = append(in0, cols[i]), append(in1, oc[i])
			}
			if len(outCols) == 0 {
				continue
			}
			tree = &logical.Expr{
				Op: logical.OpUnionAll, OutCols: outCols,
				InputCols: [][]scalar.ColumnID{in0, in1},
				Children:  []*logical.Expr{tree, other},
			}
		}
	}
	return tree
}

// lowerCanonical is a local copy of the verifier's canonical lowering — one
// fixed physical implementation per logical operator. It is duplicated on
// purpose: importing the verify package here would be an import cycle
// through the suite layer, and the lowering is small enough that drift would
// fail the fuzz target immediately.
func lowerCanonical(e *logical.Expr) *physical.Expr {
	kids := make([]*physical.Expr, len(e.Children))
	for i, c := range e.Children {
		kids[i] = lowerCanonical(c)
	}
	out := &physical.Expr{Children: kids}
	switch e.Op {
	case logical.OpGet:
		out.Op = physical.OpScan
		out.Table = e.Table
		out.Cols = e.Cols
	case logical.OpSelect:
		out.Op = physical.OpFilter
		out.Filter = e.Filter
	case logical.OpProject:
		out.Op = physical.OpProject
		out.Projs = e.Projs
	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		out.Op = physical.OpNLJoin
		out.JoinType = joinTypeOf(e.Op)
		out.On = e.On
	case logical.OpGroupBy:
		out.Op = physical.OpHashAgg
		out.GroupCols = e.GroupCols
		out.Aggs = e.Aggs
	case logical.OpUnionAll:
		out.Op = physical.OpConcat
		out.OutCols = e.OutCols
		out.InputCols = e.InputCols
	case logical.OpSort:
		out.Op = physical.OpSort
		out.Keys = e.Keys
	case logical.OpLimit:
		out.Op = physical.OpLimit
		out.N = e.N
	default:
		panic(fmt.Sprintf("refengine_test: cannot canonically lower %v", e.Op))
	}
	return out
}

func joinTypeOf(op logical.Op) physical.JoinType {
	switch op {
	case logical.OpLeftJoin:
		return physical.JoinLeft
	case logical.OpSemiJoin:
		return physical.JoinSemi
	case logical.OpAntiJoin:
		return physical.JoinAnti
	}
	return physical.JoinInner
}
