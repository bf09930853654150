package exec

import (
	"fmt"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// poisonPools preloads every scratch pool with garbage-filled buffers: vectors
// carrying live datums and null bits at full length, selection vectors full of
// out-of-range indices, flag slices stuck at true. If any operator trusts a
// pooled buffer's contents or length instead of resetting on acquisition, the
// poison surfaces as wrong rows — which the differential run below would
// catch. Buffers are Put at poisoned length deliberately; get-side hygiene is
// the contract under test.
func poisonPools(tb testing.TB) {
	tb.Helper()
	for i := 0; i < 64; i++ {
		vecs := make([]datum.Vec, 9)
		for c := range vecs {
			for k := 0; k < 2000; k++ {
				vecs[c].Append(datum.NewInt(int64(-777 - k)))
			}
			vecs[c].Append(datum.Null)
		}
		vecsPool.Put(vecs)
		sel := make([]int, 5000)
		for k := range sel {
			sel[k] = 1 << 30
		}
		selPool.Put(sel)
	}
	// A plan holds a handful of joins at most, so a few poisoned working
	// sets cover every join that acquires one.
	for i := 0; i < 8; i++ {
		sel := make([]int, 5000)
		for k := range sel {
			sel[k] = 1 << 30
		}
		ints := func() []int { return append([]int(nil), sel...) }
		cols := func() []datum.Vec {
			out := make([]datum.Vec, 9)
			for c := range out {
				for k := 0; k < 2000; k++ {
					out[c].Append(datum.NewInt(int64(-777 - k)))
				}
				out[c].Append(datum.Null)
			}
			return out
		}
		flags := make([]bool, 3000)
		for k := range flags {
			flags[k] = true
		}
		// Every buffer is poisoned on its own storage, as a real previous
		// owner would leave it.
		joinPool.Put(&joinScratch{
			predSlots: ints(), rowMatched: flags,
			keyBuf: []byte("stale-key"), buildVecs: cols(), candVecs: cols(), outVecs: cols(),
			keep: ints(), candL: ints(), candR: ints(), sel: ints(), outL: ints(), outR: ints(), outIdx: ints(),
			segs: []joinSeg{{li: 1 << 30, start: 3, end: 1, final: true}},
		})
	}
}

// TestPoolPoisonIsInvisible is the pooled-scratch hygiene guard: with every
// pool poisoned before each execution, batch results must still match the row
// engine (which uses none of the pools) on plans covering every pooled
// operator — filter selections, project vectors, the hash and nested-loops
// joins' pooled working sets (candidate/output/build vectors, selections,
// match flags), aggregate argument/result vectors, and the row-adapter
// vectors behind sort.
func TestPoolPoisonIsInvisible(t *testing.T) {
	cat := testCatalog()
	agg := func(child *physical.Expr) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpHashAgg, Children: []*physical.Expr{child},
			GroupCols: []scalar.ColumnID{1},
			Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 20}},
		}
	}
	plans := map[string]*physical.Expr{
		"scan": scanT1(),
		"filter": {
			Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(15)}},
		},
		"project": {
			Op: physical.OpProject, Children: []*physical.Expr{scanT1()},
			Projs: []logical.ProjItem{
				{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(100)}}},
			},
		},
		"agg":          agg(scanT1()),
		"agg-over-row": agg(&physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{scanT1()}, Keys: []logical.SortKey{{Col: 2, Desc: true}}}),
	}
	for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
		plans[fmt.Sprintf("hashjoin-%s", jt)] = joinPlan(physical.OpHashJoin, jt)
		plans[fmt.Sprintf("nljoin-%s", jt)] = joinPlan(physical.OpNLJoin, jt)
	}
	// Residual predicate forces the EvalPred selection path (the equi fast
	// path never writes into sel); filter under the build side forces the
	// owned build vectors instead of the bare-scan alias.
	built := func(op physical.Op, jt physical.JoinType) *physical.Expr {
		plan := joinPlan(op, jt)
		plan.Children[1] = &physical.Expr{
			Op: physical.OpFilter, Children: []*physical.Expr{plan.Children[1]},
			Filter: &scalar.Cmp{Op: scalar.CmpNE, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewString("uno")}},
		}
		return plan
	}
	plans["hashjoin-built"] = built(physical.OpHashJoin, physical.JoinLeft)
	plans["hashjoin-built-anti"] = built(physical.OpHashJoin, physical.JoinAnti)
	plans["nljoin-built"] = built(physical.OpNLJoin, physical.JoinLeft)
	plans["nljoin-built-anti"] = built(physical.OpNLJoin, physical.JoinAnti)

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			want, err := RunEngine(EngineRow, plan, cat, 0, 0)
			if err != nil {
				t.Fatalf("row engine: %v", err)
			}
			// Several rounds so later executions consume buffers earlier
			// poisoned *and* buffers recycled from the previous round.
			for round := 0; round < 3; round++ {
				poisonPools(t)
				got, err := RunEngine(EngineBatch, plan, cat, 0, 0)
				if err != nil {
					t.Fatalf("round %d: batch engine: %v", round, err)
				}
				requireSameRows(t, want, got)
			}
		})
	}
}

// TestPutSelRejectsDenseIota pins the alias guard directly: a selection
// sliced from the shared read-only iota must never enter the pool, or a later
// EvalPred would scribble over every operator's dense selections.
func TestPutSelRejectsDenseIota(t *testing.T) {
	// Drain the pool so the Get below can only see what this test Puts.
	for {
		if s, _ := selPool.Get().([]int); s == nil {
			break
		}
	}
	putSel(denseIota[:16])
	if s, _ := selPool.Get().([]int); s != nil && &s[:cap(s)][0] == &denseIota[0] {
		t.Fatalf("denseIota alias entered the selection pool")
	}
	if denseIota[10] != 10 {
		t.Fatalf("denseIota corrupted: [10] = %d", denseIota[10])
	}
}
