package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer: its name, its interval, the span
// that caused it, and its width — how many workers it can keep busy at
// once (1 for a single call, the worker count for a parallel campaign
// phase). Width turns a span's duration into worker-seconds, so a parallel
// phase's self time counts every worker it owns, not just the wall clock.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	width      int
}

// tracer keeps spans in memory until the run ends. Phase spans are opened
// and closed by the benchmark's own sequential code; leaf spans are recorded
// from inside the wrapper backends, on whatever worker goroutine the
// campaign runs them, and are parented to the phase open at the time.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []int // stack of open phase span ids; top is the current parent
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a phase span under the current one and returns its id.
func (t *tracer) begin(name string, width int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: t.parentLocked(), name: name, start: start, end: -1, width: width})
	t.open = append(t.open, id)
	return id
}

// finish closes the innermost open phase span, which must be id.
func (t *tracer) finish(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("trace: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = end
}

// leaf records a completed width-1 span under the current phase.
func (t *tracer) leaf(name string, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans), parent: t.parentLocked(), name: name, start: start, end: end, width: 1})
}

func (t *tracer) parentLocked() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in worker-seconds: its width
// times its duration, minus the part of that capacity its direct children
// occupy. At any instant a span with width w can lose at most w workers to
// its children, so with k children running the covered share is min(w, k)
// (children weighted by their own width). For a width-1 span this is the
// usual "duration minus the union of the child intervals"; for a parallel
// phase it is "worker-seconds minus child worker-seconds" as long as the
// children never oversubscribe it. Child intervals are clipped to the
// parent's.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		capacity := float64(s.width) * (s.end - s.start).Seconds()
		self := capacity - covered(s, kids[s.id])
		if self < 0 {
			self = 0
		}
		out[i] = self
	}
	return out
}

// covered integrates min(width, active children) over the parent's
// interval with a sweep over the children's clipped start and end events.
func covered(parent span, children []span) float64 {
	type event struct {
		at    time.Duration
		delta int
	}
	var evs []event
	for _, c := range children {
		start, end := max(c.start, parent.start), min(c.end, parent.end)
		if end <= start {
			continue
		}
		evs = append(evs, event{start, c.width}, event{end, -c.width})
	}
	// Ends sort before starts at the same instant, so back-to-back children
	// never count as overlapping.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	total, active := 0.0, 0
	for i, e := range evs {
		if i > 0 && active > 0 {
			total += float64(min(active, parent.width)) * (e.at - evs[i-1].at).Seconds()
		}
		active += e.delta
	}
	return total
}

// layerTotals sums self time, wall time and call count per span name.
type layerTotal struct {
	self, wall float64
	calls      int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		lt := out[s.name]
		lt.self += self[i]
		lt.wall += (s.end - s.start).Seconds()
		lt.calls++
		out[s.name] = lt
	}
	return out
}
