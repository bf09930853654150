package exec

import (
	"fmt"
	"sort"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// batchAgg is the columnar grouped/scalar aggregation. Aggregate arguments
// are evaluated once per batch (one vectorized pass per aggregate), and group
// keys go through an allocation-free two-step index: only the first row of
// each distinct group allocates its key string. With sorted set (a stream
// aggregate fed by a sort) groups are emitted in group-key order. The input
// is drained in Open.
type batchAgg struct {
	child     Operator
	groupCols []scalar.ColumnID
	aggs      []scalar.Agg
	ve        scalar.VecEval
	sorted    bool

	argVecs []datum.Vec
	keyBuf  []byte

	vecs []datum.Vec // transposed result rows
	idx  []int
	pos  int
	out  Batch
}

func (a *batchAgg) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	slots := make([]int, len(a.groupCols))
	for i, c := range a.groupCols {
		s, ok := a.ve.Env[c]
		if !ok {
			return fmt.Errorf("exec: grouping column c%d not in input", c)
		}
		slots[i] = s
	}
	if a.argVecs == nil {
		a.argVecs = getVecs(len(a.aggs))
	}
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	for {
		b, err := a.child.Next(unbounded)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i, ag := range a.aggs {
			if ag.Op == scalar.AggCountStar {
				continue
			}
			if err := a.ve.Eval(ag.Arg, b.Cols, b.Idx, &a.argVecs[i]); err != nil {
				return err
			}
		}
		for k, ri := range b.Idx {
			a.keyBuf = a.keyBuf[:0]
			for _, s := range slots {
				a.keyBuf = b.Cols[s].D[ri].AppendKey(a.keyBuf)
			}
			g, ok := groups[string(a.keyBuf)]
			if !ok {
				rep := make(datum.Row, len(slots))
				for i, s := range slots {
					rep[i] = b.Cols[s].D[ri]
				}
				g = &aggGroup{key: string(a.keyBuf), rep: rep, states: make([]*aggState, len(a.aggs))}
				for i := range g.states {
					g.states[i] = newAggState()
				}
				groups[g.key] = g
				order = append(order, g)
			}
			for i, ag := range a.aggs {
				var d datum.Datum
				if ag.Op != scalar.AggCountStar {
					d = a.argVecs[i].D[k]
				}
				if err := g.states[i].add(d, ag.Op); err != nil {
					return err
				}
			}
		}
	}
	// Scalar aggregation over empty input yields one row (COUNT=0, others
	// NULL), per SQL semantics.
	if len(a.groupCols) == 0 && len(order) == 0 {
		g := &aggGroup{states: make([]*aggState, len(a.aggs))}
		for i := range g.states {
			g.states[i] = newAggState()
		}
		order = append(order, g)
	}
	if a.sorted {
		sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	}
	width := len(a.groupCols) + len(a.aggs)
	a.vecs = getVecs(width)
	for _, g := range order {
		for i := range g.rep {
			a.vecs[i].Append(g.rep[i])
		}
		for i, ag := range a.aggs {
			a.vecs[len(a.groupCols)+i].Append(g.states[i].result(ag.Op))
		}
	}
	// The result selection is the identity, so the shared iota covers all but
	// pathological group counts; putSel's alias guard keeps it out of the pool.
	if n := len(order); n <= len(denseIota) {
		a.idx = denseIota[:n]
	} else {
		a.idx = make([]int, n)
		for i := range a.idx {
			a.idx[i] = i
		}
	}
	a.pos = 0
	return nil
}

func (a *batchAgg) Next(max int) (*Batch, error) {
	if a.pos >= len(a.idx) {
		return nil, nil
	}
	end := a.pos + min(batchSize, max, len(a.idx)-a.pos)
	a.out = Batch{Cols: a.vecs, Idx: a.idx[a.pos:end]}
	a.pos = end
	return &a.out, nil
}

func (a *batchAgg) Close() error {
	putVecs(a.argVecs)
	putVecs(a.vecs)
	a.argVecs, a.vecs = nil, nil
	putSel(a.idx)
	a.idx = nil
	return a.child.Close()
}
