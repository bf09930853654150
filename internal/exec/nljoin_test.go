package exec

import (
	"fmt"
	"testing"

	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// TestNLJoinIgnoresEquiKeys pins that the batch nested-loops join, like the
// row-at-a-time NL join it replaced, never looks at EquiLeft/EquiRight:
// every build row is a candidate and On alone decides. The plan generators in
// engine_test.go set keys on NL joins, but always keys that agree with On;
// here they disagree with it (b = x never holds on testCatalog) or name a
// column that is not in the input at all, which a keyed join rejects.
func TestNLJoinIgnoresEquiKeys(t *testing.T) {
	cat := testCatalog()
	strays := []struct {
		name        string
		left, right []scalar.ColumnID
	}{
		{"disagreeing", []scalar.ColumnID{2}, []scalar.ColumnID{3}},
		{"unresolvable", []scalar.ColumnID{99}, []scalar.ColumnID{98}},
		{"unbalanced", []scalar.ColumnID{1, 2}, nil},
	}
	for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
		keyless := joinPlan(physical.OpNLJoin, jt)
		keyless.EquiLeft, keyless.EquiRight = nil, nil
		want := runEngines(t, keyless, cat)
		for _, s := range strays {
			t.Run(fmt.Sprintf("%s-%s", jt, s.name), func(t *testing.T) {
				plan := joinPlan(physical.OpNLJoin, jt)
				plan.EquiLeft, plan.EquiRight = s.left, s.right
				requireSameRows(t, want, runEngines(t, plan, cat))
			})
		}
	}
}

// TestNLJoinAllocs guards the per-execution cost of the batch nested-loops
// join on the micro-plans small-scope verification runs by the hundred
// thousand. The ceilings are what the same plans allocated when NL joins ran
// on the retired row engine behind an adapter shim; the batch join must not
// cost more, with or without a work budget.
func TestNLJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	cat := testCatalog()
	ceilings := []struct {
		jt               physical.JoinType
		noBudget, budget float64
	}{
		{physical.JoinInner, 31, 35},
		{physical.JoinLeft, 35, 39},
		{physical.JoinSemi, 26, 30},
		{physical.JoinAnti, 26, 30},
	}
	for _, c := range ceilings {
		plan := joinPlan(physical.OpNLJoin, c.jt)
		plan.EquiLeft, plan.EquiRight = nil, nil
		for _, maxWork := range []int64{0, 4096} {
			ceiling := c.noBudget
			if maxWork > 0 {
				ceiling = c.budget
			}
			got := testing.AllocsPerRun(100, func() {
				if _, err := RunEngine(EngineBatch, plan, cat, 0, maxWork); err != nil {
					t.Fatal(err)
				}
			})
			if got > ceiling {
				t.Errorf("%s NL join, maxWork %d: %.0f allocs per run, want at most %.0f", c.jt, maxWork, got, ceiling)
			}
		}
	}
}
