package main

import (
	"testing"

	"qtrtest"
	"qtrtest/internal/bind"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
)

var wrapperQueries = []string{
	"SELECT n_name FROM nation WHERE n_regionkey = 0 ORDER BY n_name",
	"SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey",
	"SELECT n_name, r_name FROM nation JOIN region ON n_regionkey < r_regionkey",
	"SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey",
	"SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 3",
}

func sameRows(a, b []datum.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if datum.TotalCompare(a[i][j], b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

// TestWrappersMatchTheEnginesTheyTime checks that the timed backends give
// exactly the rows and errors of the calls they wrap, with tracing on and
// off, and that a traced call leaves one span per call.
func TestWrappersMatchTheEnginesTheyTime(t *testing.T) {
	db := qtrtest.OpenTPCH(0.5, 3)
	for _, traced := range []bool{false, true} {
		var p *execProbe
		if traced {
			p = &execProbe{tr: newTracer()}
			probe.Store(p)
		}
		nl := 0
		for _, q := range wrapperQueries {
			res, err := db.Optimize(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if hasNLJoin(res.Plan) {
				nl++
			}
			want, werr := exec.RunEngine(exec.EngineBatch, res.Plan, db.Catalog, 0, 0)
			got, gerr := exec.RunEngine(timedBatchEngine, res.Plan, db.Catalog, 0, 0)
			if (werr == nil) != (gerr == nil) || !sameRows(want, got) {
				t.Errorf("%s: timed-batch gave %d rows (%v), batch %d rows (%v)", q, len(got), gerr, len(want), werr)
			}
			// Capped runs must stay capped through the wrapper.
			_, werr = exec.RunEngine(exec.EngineBatch, res.Plan, db.Catalog, 1, 0)
			_, gerr = exec.RunEngine(timedBatchEngine, res.Plan, db.Catalog, 1, 0)
			if (werr == nil) != (gerr == nil) {
				t.Errorf("%s: capped timed-batch error %v, batch %v", q, gerr, werr)
			}

			b, err := bind.BindSQL(q, db.Catalog)
			if err != nil {
				t.Fatal(err)
			}
			want, werr = exec.RunTree(exec.EngineRef, b.Tree, db.Catalog, 0, 0)
			got, gerr = exec.RunTree(timedRefEngine, b.Tree, db.Catalog, 0, 0)
			if (werr == nil) != (gerr == nil) || !sameRows(want, got) {
				t.Errorf("%s: timed-ref tree gave %d rows (%v), ref %d rows (%v)", q, len(got), gerr, len(want), werr)
			}
			want, werr = exec.RunEngine(exec.EngineRef, res.Plan, db.Catalog, 0, 0)
			got, gerr = exec.RunEngine(timedRefEngine, res.Plan, db.Catalog, 0, 0)
			if (werr == nil) != (gerr == nil) || !sameRows(want, got) {
				t.Errorf("%s: timed-ref plan gave %d rows (%v), ref %d rows (%v)", q, len(got), gerr, len(want), werr)
			}
		}
		if nl == 0 {
			t.Fatal("no query planned an NL join; the nljoin counters go untested")
		}
		if !traced {
			continue
		}
		probe.Store(nil)
		lt := layerTotals(p.tr.snapshot())
		n := len(wrapperQueries)
		if lt["exec.run"].calls != 2*n || lt["refengine.run"].calls != 2*n {
			t.Errorf("spans: %d exec.run, %d refengine.run; want %d each", lt["exec.run"].calls, lt["refengine.run"].calls, 2*n)
		}
		if got := p.nlRuns.Load(); got != int64(2*nl) {
			t.Errorf("nlRuns = %d, want %d", got, 2*nl)
		}
		if p.rowsOut.Load() == 0 {
			t.Error("rowsOut not counted")
		}
	}
}

func TestTimedBatchRefusesTrees(t *testing.T) {
	db := qtrtest.OpenTPCH(0.2, 1)
	b, err := bind.BindSQL(wrapperQueries[0], db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.RunTree(timedBatchEngine, b.Tree, db.Catalog, 0, 0); err == nil {
		t.Fatal("timed-batch evaluated a logical tree")
	}
}
