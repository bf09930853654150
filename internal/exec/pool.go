package exec

import (
	"sync"

	"qtrtest/internal/datum"
)

// Scratch recycling for the batch engine. A campaign executes thousands of
// short-lived plans, and every batch iterator used to allocate its column
// vectors and selection buffers fresh in Open; those allocations — not the
// per-row work — dominated scan- and join-heavy profiles. Operators now
// acquire scratch from process-wide pools in Open and return it in Close, so
// one execution's grown buffers serve the next plan.
//
// Safety rules, enforced at the put sites:
//
//   - Reset on get, not trust on put. getVecs length-resets every vector
//     before handing the slice out, so stale datums or null words from the
//     previous owner are unreachable no matter what state it was returned in
//     (datum.Vec.Append writes its null word explicitly, so capacity reuse
//     after Reset never resurrects old bits). TestPoolPoisonIsInvisible pins
//     this by pre-poisoning the pools.
//   - Never pool aliased storage. Selection vectors that alias the shared
//     read-only denseIota (equi joins slice it directly) are rejected by
//     putSel's and putJoinScratch's base-pointer guards, and the batch join
//     pools only the build vectors it filled itself (the bare-scan fast
//     path aliases the catalog's cached column vectors, which must never
//     enter a pool).
//
// These pools hold slices directly; the slice-header box a Put allocates is
// noise next to the vector growth it saves for scans, filters, projections
// and aggregations. The batch join, which campaigns run hundreds of
// thousands of times over tiny inputs, pools its whole working set as one
// *joinScratch instead (batchjoin.go), under the same reset-on-get rule.

var (
	vecsPool sync.Pool // []datum.Vec
	selPool  sync.Pool // []int
)

// getVecs returns a vector slice of the given width with every element
// length-reset; capacities carry over from previous owners.
func getVecs(width int) []datum.Vec {
	v, _ := vecsPool.Get().([]datum.Vec)
	if cap(v) < width {
		return make([]datum.Vec, width)
	}
	v = v[:width]
	for i := range v {
		v[i].Reset()
	}
	return v
}

// putVecs recycles a vector slice obtained from getVecs. Callers must not
// pass slices that alias storage they do not own.
func putVecs(v []datum.Vec) {
	if cap(v) == 0 {
		return
	}
	vecsPool.Put(v[:0])
}

// getSel returns an empty selection buffer; capacity carries over.
func getSel() []int {
	s, _ := selPool.Get().([]int)
	return s[:0]
}

// putSel recycles a selection buffer. Slices carved from the shared
// read-only denseIota are silently dropped: handing one out as a scratch
// buffer would let an EvalPred append scribble over every operator's dense
// selections at once.
func putSel(s []int) {
	if cap(s) == 0 || &s[:cap(s)][0] == &denseIota[0] {
		return
	}
	selPool.Put(s[:0])
}
