package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func sp(id, parent int, start, end, width int) span {
	return span{id: id, parent: parent, name: "s", start: ms(start), end: ms(end), width: width}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []float64 // seconds, per span
	}{
		{
			name:  "leaf",
			spans: []span{sp(0, -1, 0, 100, 1)},
			want:  []float64{0.1},
		},
		{
			// Serial parent: overlapping children cover their union once.
			name:  "serial parent, overlapping children",
			spans: []span{sp(0, -1, 0, 100, 1), sp(1, 0, 10, 50, 1), sp(2, 0, 30, 70, 1)},
			want:  []float64{0.04, 0.04, 0.04},
		},
		{
			// Two workers: overlapping children each occupy one.
			name:  "parallel parent, overlapping children",
			spans: []span{sp(0, -1, 0, 100, 2), sp(1, 0, 10, 50, 1), sp(2, 0, 30, 70, 1)},
			want:  []float64{0.12, 0.04, 0.04},
		},
		{
			// Three children at once can take no more than the parent's
			// two workers: 20-40 has three active, so only 2×20ms covered.
			name: "oversubscribed parallel parent",
			spans: []span{
				sp(0, -1, 0, 100, 2),
				sp(1, 0, 0, 40, 1), sp(2, 0, 20, 60, 1), sp(3, 0, 20, 40, 1),
			},
			// covered: 0-20 one child (20), 20-40 min(3,2)=2 (40), 40-60 one (20) = 80ms.
			want: []float64{0.12, 0.04, 0.04, 0.02},
		},
		{
			name:  "child clipped to parent",
			spans: []span{sp(0, -1, 50, 100, 1), sp(1, 0, 0, 60, 1)},
			want:  []float64{0.04, 0.06},
		},
		{
			name:  "back-to-back children",
			spans: []span{sp(0, -1, 0, 100, 1), sp(1, 0, 0, 50, 1), sp(2, 0, 50, 100, 1)},
			want:  []float64{0, 0.05, 0.05},
		},
		{
			// Only direct children count against a span: the grandchild is
			// charged to its own parent.
			name:  "nested",
			spans: []span{sp(0, -1, 0, 100, 1), sp(1, 0, 0, 60, 1), sp(2, 1, 10, 30, 1)},
			want:  []float64{0.04, 0.04, 0.02},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := selfTimes(tc.spans)
			for i := range tc.want {
				if math.Abs(got[i]-tc.want[i]) > 1e-9 {
					t.Errorf("span %d self = %v, want %v (all: %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}

func TestTracerParentsLeavesToOpenPhase(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 2)
	phase := tr.begin("phase", 2)
	tr.leaf("leaf", tr.now(), tr.now())
	tr.finish(phase)
	tr.leaf("after", tr.now(), tr.now())
	tr.finish(root)
	spans := tr.snapshot()
	parents := map[string]int{}
	for _, s := range spans {
		parents[s.name] = s.parent
	}
	if parents["root"] != -1 || parents["phase"] != root || parents["leaf"] != phase || parents["after"] != root {
		t.Fatalf("parents = %v", parents)
	}
	lt := layerTotals(spans)
	if lt["leaf"].calls != 1 || lt["root"].calls != 1 {
		t.Fatalf("layer totals = %v", lt)
	}
}

func TestTracerRejectsOutOfOrderFinish(t *testing.T) {
	tr := newTracer()
	a := tr.begin("a", 1)
	tr.begin("b", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("closing an outer span first did not panic")
		}
	}()
	tr.finish(a)
}
