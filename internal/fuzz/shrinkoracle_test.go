package fuzz

import (
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// stringTimesTwo is a deliberately broken rewrite: it filters the query on
// its first string output column multiplied by two, which binds and plans
// but fails on execution as soon as a row reaches the filter.
var stringTimesTwo = Rewrite{
	Name: "string-times-two",
	Apply: func(tree *logical.Expr, md *logical.Metadata, _ int64) *logical.Expr {
		for _, col := range tree.OutputCols() {
			if md.Column(col).Type != datum.TypeString {
				continue
			}
			twice := &scalar.Arith{Op: scalar.ArithMul, L: &scalar.ColRef{ID: col}, R: &scalar.Const{D: datum.NewInt(2)}}
			return &logical.Expr{
				Op:       logical.OpSelect,
				Children: []*logical.Expr{tree.Clone()},
				Filter:   &scalar.Cmp{Op: scalar.CmpEQ, L: twice, R: &scalar.Const{D: datum.NewInt(0)}},
			}
		}
		return nil
	},
}

// TestShrinkMetamorphicExecError: an exec-error finding raised by a
// metamorphic rewrite is shrunk by replaying that rewrite on each
// candidate. The finding's base plan runs fine, so a keep predicate that
// re-executed only the base would reject the original query and ship the
// finding unshrunk.
func TestShrinkMetamorphicExecError(t *testing.T) {
	cfg := Config{Seed: 3, Catalog: catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 3}), DB: "tpch"}
	cfg.setDefaults()
	c, err := newCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.rewrites = []Rewrite{stringTimesTwo}
	var f *finding
	for idx := 0; idx < 64 && f == nil; idx++ {
		r := c.runOne(idx, qgen.DefaultWeights())
		for i := range r.findings {
			if pub := r.findings[i].pub; pub.Kind == KindExecError && pub.Rewrite == stringTimesTwo.Name {
				f = &r.findings[i]
				break
			}
		}
	}
	if f == nil {
		t.Fatal("the broken rewrite raised no exec-error finding in 64 queries")
	}
	c.shrinkFinding(f)
	if f.pub.ShrunkSQL == "" {
		t.Fatalf("exec-error finding from rewrite %s was not shrunk: sql=%s", f.pub.Rewrite, f.pub.SQL)
	}
	if ops := f.tree.CountOps(); f.pub.ShrunkOps >= ops {
		t.Errorf("shrinking removed nothing: %d operators, the original %d", f.pub.ShrunkOps, ops)
	}

	// The shrunk query still runs as a base and still fails under the
	// rewrite.
	bound, err := bind.BindSQL(f.pub.ShrunkSQL, cfg.Catalog)
	if err != nil {
		t.Fatalf("shrunk SQL does not bind: %v", err)
	}
	q, _, err := c.prepare(bound.Tree, bound.MD)
	if err != nil {
		t.Fatalf("shrunk SQL does not plan: %v", err)
	}
	if q.base, err = c.oracle.Base(q.res.Plan, cfg.Catalog); err != nil {
		t.Fatalf("shrunk query's base fails: %v", err)
	}
	q.seed = f.pub.Seed
	if tr := c.metamorphic(q, stringTimesTwo); !tr.failed() {
		t.Errorf("shrunk query no longer fails under the rewrite: %s", f.pub.ShrunkSQL)
	}
}
