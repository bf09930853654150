package exec

import (
	"fmt"
	"slices"
	"sync"

	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// batchHashJoin is the columnar join for hash, nested-loops and merge join
// plans. The build side is materialized into column vectors in Open; the
// probe side is processed in chunks of candidate (left, right) pairs whose
// join predicate is evaluated in one vectorized pass per chunk.
//
// A hash join finds a probe row's candidates through an allocation-free key
// index over the build side (map hits cost no allocation; only distinct keys
// allocate). A nested-loops join is the keyless case: every build row, in
// build order, is a candidate for every probe row, so there is no key map,
// no NULL-key filter, and any EquiLeft/EquiRight on the plan is ignored. A
// merge join is the keyed join over both inputs stably sorted on their keys
// (keySort): probing the sorted left side against the sorted build side
// emits each key group's cross product in sorted key order, left-major, which
// is the merge algorithm's sequence; both skip NULL keys, and the key
// encoding and datum.TotalCompare fold numeric kinds alike.
//
// Chunks materialize late: the predicate pass gathers only the columns On
// references, and only passing pairs are gathered at full width. The pairs
// per chunk are bounded by chunkCells over the gathered width, so a wide
// join pins no more scratch than a narrow one.
//
// Emission order is the Volcano model's: for each probe row in stream order,
// its passing matches in build order, then its outer/anti fallout. A semi or
// anti probe row stops at its first passing candidate, and errors from
// candidates past that point are never raised (see evalPairwise). The
// differential golden tests rely on both.
//
// Under a capped demand (a Limit above) the join pulls no probe row a
// row-at-a-time join would not have started: semi and anti joins emit at
// most one row per probe row, so they pull as many probe rows as the demand;
// inner and left joins pull one probe row at a time and stop mid-row once the
// demand is met (see trimToDemand).
type batchHashJoin struct {
	plan        *physical.Expr
	left, right Operator

	jt         physical.JoinType
	keyless    bool // nested-loops: every build row is a candidate
	equi       bool // On is exactly the equi-key conjunction
	leftWidth  int
	rightWidth int
	leftSlots  []int
	rightSlots []int
	chunkPairs int // candidate pairs per chunk

	// build side. rightVecs is either the scratch's buildVecs, filled by
	// this join, or — on the bare-scan fast path — the catalog's cached
	// column vectors, or a sorted build side's own vectors; those two must
	// never be recycled. buildN counts the build rows a keyless join
	// iterates.
	rightVecs []datum.Vec
	buildN    int
	lookup    map[string]int32
	groups    [][]int32

	// probe cursor: position li in the current left batch; mi is the offset
	// into the current row's candidates (group, or 0..buildN-1 when keyless)
	// when they span chunks.
	lb       *Batch
	li       int
	inRow    bool
	mi       int
	group    []int32
	groupLen int

	// *joinScratch holds everything else an execution needs; it is taken
	// from joinPool in Open and returned whole in Close.
	*joinScratch
}

// joinScratch is one batch join's working set. Pooling it as a unit keeps a
// short join — a campaign runs hundreds of thousands of them over tiny
// tables — from allocating its buffers, its VecEval scratch vectors, or a
// boxed slice header per buffer on return.
type joinScratch struct {
	ve        scalar.VecEval // env over the combined (left ++ right) layout
	predSlots []int          // combined-layout slots On references

	// rowMatched[k] records whether probe row k of the current left batch
	// has produced a passing match yet.
	rowMatched []bool
	keyBuf     []byte
	buildVecs  []datum.Vec // owned build-side columns

	keep     []int // non-NULL-key row indices of the current build batch
	candL    []int // left row index (into lb.Cols) per candidate
	candR    []int // build row index (into rightVecs) per candidate
	segs     []joinSeg
	candVecs []datum.Vec // predicate columns of the candidates, combined layout
	sel      []int

	outL, outR []int       // output rows' left/build indices; -1 pads NULLs
	outVecs    []datum.Vec // materialized output (inner/left joins)
	outIdx     []int       // selected output (semi/anti joins)
	out        Batch
}

var joinPool sync.Pool // *joinScratch

// getJoinScratch returns a working set with every buffer length-reset;
// capacities carry over from previous owners.
func getJoinScratch() *joinScratch {
	s, _ := joinPool.Get().(*joinScratch)
	if s == nil {
		return &joinScratch{}
	}
	s.predSlots, s.rowMatched, s.keyBuf = s.predSlots[:0], s.rowMatched[:0], s.keyBuf[:0]
	s.keep, s.candL, s.candR, s.segs = s.keep[:0], s.candL[:0], s.candR[:0], s.segs[:0]
	s.sel, s.outL, s.outR, s.outIdx = s.sel[:0], s.outL[:0], s.outR[:0], s.outIdx[:0]
	s.buildVecs, s.candVecs, s.outVecs = s.buildVecs[:0], s.candVecs[:0], s.outVecs[:0]
	return s
}

// putJoinScratch recycles a working set. A selection that aliases the
// shared read-only denseIota (equi joins slice it directly) is dropped, and
// so are references into the last execution's data.
func putJoinScratch(s *joinScratch) {
	if cap(s.sel) > 0 && &s.sel[:cap(s.sel)][0] == &denseIota[0] {
		s.sel = nil
	}
	s.ve.Env = nil
	s.out = Batch{}
	joinPool.Put(s)
}

// resetVecs returns v resized to width with every vector length-reset.
func resetVecs(v []datum.Vec, width int) []datum.Vec {
	if cap(v) < width {
		v = append(v[:cap(v)], make([]datum.Vec, width-cap(v))...)
	}
	v = v[:width]
	for i := range v {
		v[i].Reset()
	}
	return v
}

// joinSeg is one probe row's slice of a chunk's candidate pairs.
type joinSeg struct {
	li         int  // position in lb.Idx
	start, end int  // candidate range
	final      bool // chunk holds the row's last candidates
}

// keySlots resolves equi-key columns to input row slots. A key column
// missing from its input is a plan-construction bug and must surface as an
// error rather than silently probing slot 0.
func keySlots(env scalar.Env, cols []scalar.ColumnID, join, side string) ([]int, error) {
	slots := make([]int, len(cols))
	for i, c := range cols {
		s, ok := env[c]
		if !ok {
			return nil, fmt.Errorf("exec: %s join key column c%d not in %s input", join, c, side)
		}
		slots[i] = s
	}
	return slots, nil
}

// combinedEnv builds the evaluation environment for a (left ++ right) row.
func combinedEnv(plan *physical.Expr) scalar.Env {
	l := plan.Children[0].OutputCols()
	r := plan.Children[1].OutputCols()
	env := make(scalar.Env, len(l)+len(r))
	for i, c := range l {
		env[c] = i
	}
	for i, c := range r {
		env[c] = len(l) + i
	}
	return env
}

func newBatchHashJoin(plan *physical.Expr, left, right Operator) *batchHashJoin {
	keyless := plan.Op == physical.OpNLJoin
	return &batchHashJoin{
		plan: plan, left: left, right: right,
		jt: plan.JoinType, keyless: keyless, equi: !keyless && equiOnly(plan),
	}
}

// equiOnly reports whether the join predicate is exactly the conjunction of
// the equi-key equalities. The hash index only ever yields non-NULL key-equal
// candidates, and the key encoding is injective with respect to
// datum.Compare equality (numeric kinds fold through the same float64 image
// both sides use), so for such predicates every candidate passes by
// construction and the per-candidate predicate pass can be skipped.
func equiOnly(plan *physical.Expr) bool {
	conj := []scalar.Expr{plan.On}
	if and, ok := plan.On.(*scalar.And); ok {
		conj = and.Kids
	}
	if len(conj) != len(plan.EquiLeft) {
		return false
	}
	used := make([]bool, len(plan.EquiLeft))
	for _, e := range conj {
		cmp, ok := e.(*scalar.Cmp)
		if !ok || cmp.Op != scalar.CmpEQ {
			return false
		}
		l, lok := cmp.L.(*scalar.ColRef)
		r, rok := cmp.R.(*scalar.ColRef)
		if !lok || !rok {
			return false
		}
		found := false
		for i := range plan.EquiLeft {
			if used[i] {
				continue
			}
			if (plan.EquiLeft[i] == l.ID && plan.EquiRight[i] == r.ID) ||
				(plan.EquiLeft[i] == r.ID && plan.EquiRight[i] == l.ID) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (h *batchHashJoin) Open() error {
	lcols := h.plan.Children[0].OutputCols()
	rcols := h.plan.Children[1].OutputCols()
	h.leftWidth, h.rightWidth = len(lcols), len(rcols)
	if !h.keyless {
		kind := "hash"
		if h.plan.Op == physical.OpMergeJoin {
			kind = "merge"
		}
		var err error
		if h.leftSlots, err = keySlots(envOf(lcols), h.plan.EquiLeft, kind, "left"); err != nil {
			return err
		}
		if h.rightSlots, err = keySlots(envOf(rcols), h.plan.EquiRight, kind, "right"); err != nil {
			return err
		}
	}
	if h.joinScratch == nil {
		h.joinScratch = getJoinScratch()
	}
	if err := h.buildSide(); err != nil {
		return err
	}
	width := h.leftWidth + h.rightWidth
	gathered := 0 // datums gathered per candidate pair
	if !h.equi {
		h.ve.Env = combinedEnv(h.plan)
		var ok bool
		if h.predSlots, ok = appendRefSlots(h.predSlots[:0], h.plan.On, h.ve.Env); !ok {
			h.predSlots = append(h.predSlots[:0], denseIota[:width]...)
		}
		h.candVecs = resetVecs(h.candVecs, width)
		gathered += len(h.predSlots)
	}
	if h.jt == physical.JoinInner || h.jt == physical.JoinLeft {
		h.outVecs = resetVecs(h.outVecs, width)
		gathered += width
	}
	h.chunkPairs = chunkCells / max(gathered, 1)
	h.lb, h.li, h.inRow = nil, 0, false
	return h.left.Open()
}

// appendRefSlots appends the distinct env slots of the columns e references
// to dst. ok is false for an expression form it does not know; the caller
// then gathers every column, so the predicate pass can never miss one.
func appendRefSlots(dst []int, e scalar.Expr, env scalar.Env) (_ []int, ok bool) {
	switch t := e.(type) {
	case *scalar.ColRef:
		if s, in := env[t.ID]; in && !slices.Contains(dst, s) {
			dst = append(dst, s)
		}
		return dst, true
	case *scalar.Const:
		return dst, true
	case *scalar.Cmp:
		if dst, ok = appendRefSlots(dst, t.L, env); !ok {
			return dst, false
		}
		return appendRefSlots(dst, t.R, env)
	case *scalar.Arith:
		if dst, ok = appendRefSlots(dst, t.L, env); !ok {
			return dst, false
		}
		return appendRefSlots(dst, t.R, env)
	case *scalar.Not:
		return appendRefSlots(dst, t.Kid, env)
	case *scalar.IsNull:
		return appendRefSlots(dst, t.Kid, env)
	case *scalar.And:
		return appendRefSlotsAll(dst, t.Kids, env)
	case *scalar.Or:
		return appendRefSlotsAll(dst, t.Kids, env)
	}
	return dst, false
}

func appendRefSlotsAll(dst []int, kids []scalar.Expr, env scalar.Env) (_ []int, ok bool) {
	for _, k := range kids {
		if dst, ok = appendRefSlots(dst, k, env); !ok {
			return dst, false
		}
	}
	return dst, true
}

// scanOf unwraps a batch subtree down to a bare table scan, looking through
// the meter; nil when the subtree is anything else.
func scanOf(it Operator) (*batchScan, *batchMeter) {
	if m, ok := it.(*batchMeter); ok {
		if bs, ok := m.child.(*batchScan); ok {
			return bs, m
		}
		return nil, nil
	}
	bs, _ := it.(*batchScan)
	return bs, nil
}

// buildSide drains the right child into column vectors. A hash join indexes
// non-NULL keys; rows with a NULL key can never match and are not stored. A
// keyless join stores every row.
//
// When the build child is a bare table scan, the catalog's cached column
// vectors are used in place: they are stable storage, so copying them per
// execution would be pure overhead. A hash join's group index then holds
// table row positions and skipped NULL-key rows simply have no group entry;
// a keyless join iterates the table's rows in order.
func (h *batchHashJoin) buildSide() error {
	if err := h.right.Open(); err != nil {
		return err
	}
	if bs, m := scanOf(h.right); bs != nil {
		h.rightVecs = bs.cols
		if h.keyless {
			h.buildN = len(bs.idx)
		} else {
			idx := bs.table.JoinIndex(h.rightSlots)
			h.lookup, h.groups = idx.Lookup, idx.Groups
		}
		if m != nil {
			// Count what the scan would have emitted batch by batch; only
			// the plan-wide total matters for the ErrRowLimit verdict.
			if err := m.charge(len(bs.idx)); err != nil {
				return err
			}
		}
		bs.pos = len(bs.idx) // the scan is consumed
		return nil
	}
	h.buildVecs = resetVecs(h.buildVecs, h.rightWidth)
	h.rightVecs = h.buildVecs
	if h.keyless {
		h.buildN = 0
		for {
			b, err := h.right.Next(unbounded)
			if err != nil || b == nil {
				return err
			}
			for c := 0; c < h.rightWidth; c++ {
				h.rightVecs[c].AppendGather(b.Cols[c].D, b.Idx)
			}
			h.buildN += b.Len()
		}
	}
	// An unmetered sort (a merge join's build side) holds its whole input in
	// vectors that stay put until it is closed, so, as with a bare scan, the
	// groups index those vectors in place instead of a copy in buildVecs.
	sorted, inPlace := h.right.(*batchSort)
	h.lookup = make(map[string]int32)
	h.groups = nil // never reuse: the fast path above aliases a shared index
	stored := int32(0)
	for {
		b, err := h.right.Next(unbounded)
		if err != nil {
			return err
		}
		if b == nil {
			if inPlace {
				h.rightVecs = sorted.vecs
			}
			return nil
		}
		h.keep = h.keep[:0]
	rows:
		for _, ri := range b.Idx {
			h.keyBuf = h.keyBuf[:0]
			for _, s := range h.rightSlots {
				d := b.Cols[s].D[ri]
				if d.IsNull() {
					continue rows
				}
				h.keyBuf = d.AppendKey(h.keyBuf)
			}
			slot, ok := h.lookup[string(h.keyBuf)]
			if !ok {
				slot = int32(len(h.groups))
				h.lookup[string(h.keyBuf)] = slot
				h.groups = append(h.groups, nil)
			}
			pos := int32(ri)
			if !inPlace {
				h.keep = append(h.keep, ri)
				pos = stored
				stored++
			}
			h.groups[slot] = append(h.groups[slot], pos)
		}
		if !inPlace {
			for c := 0; c < h.rightWidth; c++ {
				h.rightVecs[c].AppendGather(b.Cols[c].D, h.keep)
			}
		}
	}
}

func (h *batchHashJoin) Next(max int) (*Batch, error) {
	for {
		if h.lb == nil {
			demand := max
			if max != unbounded && !h.semiAnti() {
				demand = 1
			}
			lb, err := h.left.Next(demand)
			if err != nil {
				return nil, err
			}
			if lb == nil {
				return nil, nil
			}
			h.lb, h.li, h.inRow = lb, 0, false
			h.rowMatched = append(h.rowMatched[:0], make([]bool, lb.Len())...)
		}
		var b *Batch
		var err error
		if h.equi && h.semiAnti() {
			b = h.semiAntiEqui(max)
		} else {
			b, err = h.processChunk(max)
			if err != nil {
				return nil, err
			}
		}
		if h.li >= len(h.lb.Idx) && !h.inRow {
			h.lb = nil
		}
		if b != nil && b.Len() > 0 {
			return b, nil
		}
	}
}

// semiAnti reports whether the join emits at most one row per probe row,
// its left row alone.
func (h *batchHashJoin) semiAnti() bool {
	return h.jt == physical.JoinSemi || h.jt == physical.JoinAnti
}

// semiAntiEqui handles semi and anti joins whose predicate is exactly the
// equi-key conjunction: a probe row passes iff its candidate group is
// (non-)empty, so up to max probe rows resolve with one hash lookup each and
// no candidate pairs are ever gathered.
func (h *batchHashJoin) semiAntiEqui(max int) *Batch {
	h.outIdx = h.outIdx[:0]
	for n := 0; h.li < len(h.lb.Idx) && n < max; h.li, n = h.li+1, n+1 {
		h.resolveRow()
		if (len(h.group) > 0) == (h.jt == physical.JoinSemi) {
			h.outIdx = append(h.outIdx, h.lb.Idx[h.li])
		}
	}
	h.inRow = false
	h.out = Batch{Cols: h.lb.Cols, Idx: h.outIdx}
	return &h.out
}

// resolveRow finds the candidates of the probe row at position li: every
// build row for a keyless join, else the row's key group.
func (h *batchHashJoin) resolveRow() {
	h.group, h.groupLen, h.mi, h.inRow = nil, 0, 0, true
	if h.keyless {
		h.groupLen = h.buildN
		return
	}
	ri := h.lb.Idx[h.li]
	h.keyBuf = h.keyBuf[:0]
	for _, s := range h.leftSlots {
		d := h.lb.Cols[s].D[ri]
		if d.IsNull() {
			return
		}
		h.keyBuf = d.AppendKey(h.keyBuf)
	}
	if slot, ok := h.lookup[string(h.keyBuf)]; ok {
		h.group = h.groups[slot]
		h.groupLen = len(h.group)
	}
}

// processChunk gathers up to chunkPairs candidate pairs from the probe rows
// starting at the probe cursor, evaluates the join predicate once over all of
// them, and emits the chunk's output in probe order, at most max rows. A
// chunk spans at most batchSize probe rows, which keeps a left join's output
// (passing pairs plus one fallout row per probe row) within denseIota; under
// a capped demand it spans at most max probe rows of a semi or anti join and
// one probe row of an inner or left join.
func (h *batchHashJoin) processChunk(max int) (*Batch, error) {
	h.candL = h.candL[:0]
	h.candR = h.candR[:0]
	h.segs = h.segs[:0]
	rows := batchSize
	if h.semiAnti() {
		rows = min(rows, max)
	} else if max != unbounded {
		rows = 1
	}
	n := 0
	for h.li < len(h.lb.Idx) && n < h.chunkPairs && len(h.segs) < rows {
		if !h.inRow {
			h.resolveRow()
		}
		if h.rowMatched[h.li] && h.semiAnti() {
			// Decision already made in an earlier chunk: stop probing the row.
			h.mi = h.groupLen
		}
		start := n
		ri := h.lb.Idx[h.li]
		take := min(h.groupLen-h.mi, h.chunkPairs-n)
		for k := 0; k < take; k++ {
			h.candL = append(h.candL, ri)
		}
		if h.keyless {
			for k := 0; k < take; k++ {
				h.candR = append(h.candR, h.mi+k)
			}
		} else {
			for _, r := range h.group[h.mi : h.mi+take] {
				h.candR = append(h.candR, int(r))
			}
		}
		h.mi += take
		n += take
		final := h.mi >= h.groupLen
		h.segs = append(h.segs, joinSeg{li: h.li, start: start, end: n, final: final})
		if !final {
			break // chunk full mid-row; resume this row next call
		}
		h.li++
		h.inRow = false
	}
	if err := h.evalChunk(max); err != nil {
		return nil, err
	}
	if !h.semiAnti() && len(h.sel) >= max {
		h.trimToDemand(max)
	}
	return h.emitChunk(), nil
}

// trimToDemand cuts an inner or left join chunk — one probe row under a
// capped demand — back to its first max passing pairs and rewinds the probe
// cursor to the candidate after the last of them, so the next call resumes
// there: no output row past the demand is produced, and candidates that
// evalPairwise left unevaluated are not skipped.
func (h *batchHashJoin) trimToDemand(max int) {
	seg := &h.segs[0]
	last := h.sel[max-1]
	h.sel = h.sel[:max]
	if seg.final {
		h.li, h.inRow = seg.li, true
	}
	h.mi -= seg.end - (last + 1)
	seg.end, seg.final = last+1, false
}

// evalChunk gathers the predicate columns of the candidate pairs and runs
// one vectorized predicate pass, leaving the passing candidate positions in
// h.sel. For an equi-only predicate the pass is skipped: every hash
// candidate matches by construction.
func (h *batchHashJoin) evalChunk(max int) error {
	n := len(h.candL)
	if h.equi {
		// Aliasing the shared read-only iota is safe: an equi-only join never
		// takes the EvalPred path below, which is the only writer into sel.
		h.sel = denseIota[:n]
		return nil
	}
	h.sel = h.sel[:0]
	if n == 0 {
		return nil
	}
	for _, s := range h.predSlots {
		v := &h.candVecs[s]
		v.Reset()
		if s < h.leftWidth {
			v.AppendGather(h.lb.Cols[s].D, h.candL)
		} else {
			v.AppendGather(h.rightVecs[s-h.leftWidth].D, h.candR)
		}
	}
	sel, err := h.ve.EvalPred(h.plan.On, h.candVecs, denseIota[:n], h.sel)
	if err != nil {
		if h.semiAnti() || max != unbounded {
			return h.evalPairwise(max)
		}
		return err
	}
	h.sel = sel
	return nil
}

// evalPairwise re-evaluates a chunk whose vectorized pass failed one pair at
// a time in row order, so that only an error a row-at-a-time join would
// reach is raised: a semi or anti probe row stops at its first passing
// candidate, and a join under a capped demand stops at its max-th passing
// pair; the candidates after those are never evaluated. h.sel receives the
// passing candidates up to those points, which is all emitChunk reads.
func (h *batchHashJoin) evalPairwise(max int) error {
	h.sel = h.sel[:0]
	var one []int
	for _, seg := range h.segs {
		for p := seg.start; p < seg.end; p++ {
			var err error
			if one, err = h.ve.EvalPred(h.plan.On, h.candVecs, denseIota[p:p+1], one[:0]); err != nil {
				return err
			}
			if len(one) == 0 {
				continue
			}
			h.sel = append(h.sel, p)
			if h.semiAnti() {
				break
			}
			if len(h.sel) == max {
				return nil
			}
		}
	}
	return nil
}

// emitChunk walks the chunk's segments in probe order and assembles the
// output batch: each row's passing matches, then its fallout once its
// candidates are exhausted.
func (h *batchHashJoin) emitChunk() *Batch {
	sel := h.sel
	if h.semiAnti() {
		h.outIdx = h.outIdx[:0]
		si := 0
		for _, seg := range h.segs {
			for si < len(sel) && sel[si] < seg.start {
				si++
			}
			if si < len(sel) && sel[si] < seg.end && !h.rowMatched[seg.li] {
				h.rowMatched[seg.li] = true
				if h.jt == physical.JoinSemi {
					h.outIdx = append(h.outIdx, h.lb.Idx[seg.li])
				}
			}
			if seg.final && h.jt == physical.JoinAnti && !h.rowMatched[seg.li] {
				h.outIdx = append(h.outIdx, h.lb.Idx[seg.li])
			}
		}
		h.out = Batch{Cols: h.lb.Cols, Idx: h.outIdx}
		return &h.out
	}
	h.outL, h.outR = h.outL[:0], h.outR[:0]
	if h.jt == physical.JoinInner {
		for _, p := range sel {
			h.outL = append(h.outL, h.candL[p])
			h.outR = append(h.outR, h.candR[p])
		}
	} else {
		si := 0
		for _, seg := range h.segs {
			for ; si < len(sel) && sel[si] < seg.end; si++ {
				h.outL = append(h.outL, h.candL[sel[si]])
				h.outR = append(h.outR, h.candR[sel[si]])
				h.rowMatched[seg.li] = true
			}
			if seg.final && !h.rowMatched[seg.li] {
				h.outL = append(h.outL, h.lb.Idx[seg.li])
				h.outR = append(h.outR, -1)
			}
		}
	}
	for c := 0; c < h.leftWidth; c++ {
		h.outVecs[c].Reset()
		h.outVecs[c].AppendGather(h.lb.Cols[c].D, h.outL)
	}
	for c := 0; c < h.rightWidth; c++ {
		v := &h.outVecs[h.leftWidth+c]
		v.Reset()
		if h.jt == physical.JoinInner {
			v.AppendGather(h.rightVecs[c].D, h.outR)
			continue
		}
		src := h.rightVecs[c].D
		for _, r := range h.outR {
			if r < 0 {
				v.Append(datum.Null)
			} else {
				v.Append(src[r])
			}
		}
	}
	h.out = Batch{Cols: h.outVecs, Idx: denseIota[:len(h.outL)]}
	return &h.out
}

func (h *batchHashJoin) Close() error {
	if h.joinScratch != nil {
		putJoinScratch(h.joinScratch)
		h.joinScratch = nil
	}
	h.rightVecs, h.group, h.lb = nil, nil, nil
	err1 := h.left.Close()
	err2 := h.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
