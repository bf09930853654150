package suite

import (
	"strings"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
)

// TestOracleOutcomes pins every outcome of the one oracle all campaigns
// share. Each case executes its base on an uncapped oracle, then runs Edge
// (or CrossCheck, when the case names a backend) on the case's oracle, so a
// cap or a backend can act on the alternative side alone.
func TestOracleOutcomes(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	o := opt.New(rules.DefaultRegistry(), cat)
	plan := func(sql string) (*physical.Expr, *logical.Expr) {
		t.Helper()
		bound, err := bind.BindSQL(sql, cat)
		if err != nil {
			t.Fatalf("bind %q: %v", sql, err)
		}
		res, err := o.Optimize(bound.Tree, bound.MD, opt.Options{})
		if err != nil {
			t.Fatalf("optimize %q: %v", sql, err)
		}
		return res.Plan, bound.Tree
	}
	const (
		nations = "SELECT n_name FROM nation WHERE n_regionkey = 1"
		regions = "SELECT r_name FROM region"
	)
	cases := []struct {
		name string
		base string
		alt  string // the alternative's SQL; "" reuses the base plan
		// backend, when set, makes the case a CrossCheck of alt's logical
		// tree on that engine; otherwise it is an Edge of alt's plan.
		backend string
		maxWork int64
		want    EdgeOutcome
		wantErr string
	}{
		{name: "identical plan", base: nations, want: EdgeOutcome{Skipped: true}},
		{name: "alternative over MaxWork", base: regions, alt: nations, maxWork: 3, want: EdgeOutcome{Capped: true}},
		{name: "backend over budget", base: nations, alt: nations, backend: "ref", maxWork: 3, want: EdgeOutcome{Capped: true}},
		{name: "backend is the engine", base: nations, alt: nations, backend: "batch", want: EdgeOutcome{Skipped: true}},
		{name: "backend agrees", base: nations, alt: nations, backend: "ref", want: EdgeOutcome{Verdict: exec.VerdictEqual}},
		{
			name: "backend error", base: nations, backend: "ref",
			alt:     "SELECT n_name FROM nation WHERE n_name * 2 = 0",
			wantErr: "backend ref execution:",
		},
		{
			name: "mismatch", base: nations,
			alt:  "SELECT n_name FROM nation WHERE n_regionkey = 2",
			want: EdgeOutcome{Verdict: exec.VerdictMismatch, Detail: "*"},
		},
		{
			name: "LIMIT without a total order", base: "SELECT n_name FROM nation LIMIT 3",
			alt:  "SELECT n_name FROM nation WHERE n_nationkey > 10 LIMIT 3",
			want: EdgeOutcome{Verdict: exec.VerdictUndetermined, Detail: "*"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := rescache.New(0)
			basePlan, _ := plan(tc.base)
			base, err := (&Oracle{Cache: rc}).Base(basePlan, cat)
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			altPlan, altTree := basePlan, (*logical.Expr)(nil)
			if tc.alt != "" {
				altPlan, altTree = plan(tc.alt)
			}
			orc := &Oracle{Cache: rc, MaxWork: tc.maxWork}
			if err := orc.SetBackend(tc.backend); err != nil {
				t.Fatal(err)
			}
			before := rc.Stats()
			var out EdgeOutcome
			if tc.backend != "" {
				out, err = orc.CrossCheck(altTree, &base, cat)
			} else {
				out, err = orc.Edge(&base, altPlan, cat)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.want.Detail == "*" {
				if out.Detail == "" {
					t.Errorf("verdict %v came without a detail", out.Verdict)
				}
				out.Detail = "*"
			}
			if out != tc.want {
				t.Errorf("outcome = %+v, want %+v", out, tc.want)
			}
			after := rc.Stats()
			lookups := after.Hits + after.Misses - before.Hits - before.Misses
			if skipped := tc.want.Skipped; skipped != (lookups == 0) {
				t.Errorf("skipped=%v but the cache saw %d lookups", skipped, lookups)
			}
		})
	}
}

// TestOracleBackendSetting: an unknown backend name is rejected and leaves
// the oracle as it was; an empty name turns the cross-check off.
func TestOracleBackendSetting(t *testing.T) {
	var orc Oracle
	if _, on := orc.Backend(); on {
		t.Fatal("zero Oracle has a backend")
	}
	if err := orc.SetBackend("ref"); err != nil {
		t.Fatal(err)
	}
	if err := orc.SetBackend("no-such-engine"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if eng, on := orc.Backend(); !on || eng != exec.EngineRef {
		t.Fatalf("Backend() = %v, %v after a rejected name; want ref, true", eng, on)
	}
	if err := orc.SetBackend(""); err != nil {
		t.Fatal(err)
	}
	if _, on := orc.Backend(); on {
		t.Fatal("empty name left the cross-check on")
	}
}
