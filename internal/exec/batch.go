package exec

import (
	"fmt"
	"math"
	"slices"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// The engine is columnar: operators exchange Batches of column vectors
// instead of single rows, amortizing interpretation overhead and avoiding
// per-row key strings and combined-row allocations. Every physical operator
// has a batch implementation: scan, filter, project, limit, concat and sort
// here; hash, nested-loops and merge joins in batchjoin.go (the nested-loops
// join is the keyless case of the hash join, the merge join the keyed hash
// join over key-sorted inputs); aggregation in batchagg.go.
//
// Demand flows down: Next takes the most rows the consumer will take, and no
// operator pulls a row the consumer's demand does not account for. A Limit
// therefore stops evaluating at N, and every operator emits — and is charged
// for — exactly the rows a row-at-a-time (Volcano) executor would emit, so
// budget verdicts and EXPLAIN ANALYZE counts are those of the Volcano model.

const (
	// batchSize is the nominal number of rows per batch. Scans, sorts and
	// aggregations emit at most this many rows per batch; a join chunk may
	// emit up to chunkCells matches plus one fallout row for each of its at
	// most batchSize probe rows.
	batchSize = 1024
	// chunkCells bounds the datums a join chunk gathers: predicate columns
	// for every candidate pair plus full-width rows for the passing ones. A
	// join gathering w datums per pair takes chunkCells/w pairs per chunk, so
	// the memory a match-heavy (e.g. dropped-predicate) join pins is bounded
	// regardless of fan-out, and a wide join's chunk pins no more than a
	// narrow one's.
	chunkCells = 4096
	// unbounded is the demand of a consumer that drains its input: the plan
	// root, blocking operators filling themselves in Open, and everything
	// below them that no Limit caps.
	unbounded = math.MaxInt
)

// denseIota is the shared read-only selection vector operators producing
// dense output slice their Idx from. Its length covers the largest batch any
// operator emits: a left join's candidate matches plus one fallout row per
// probe row.
var denseIota = func() []int {
	s := make([]int, chunkCells+batchSize)
	for i := range s {
		s[i] = i
	}
	return s
}()

// Batch is a unit of columnar data flow: one vector per output column plus a
// selection vector. Row k of the batch is (Cols[0].D[Idx[k]], Cols[1].D[Idx[k]], …);
// filters shrink Idx without touching the vectors. A batch and its backing
// arrays are only valid until the producer's next Next call.
type Batch struct {
	Cols []datum.Vec
	Idx  []int
	// Rows, when non-nil, is a ready-made row view of the batch: Rows[k] is
	// row k (the row Idx[k] selects), backed by stable storage that outlives
	// the batch. Scans window the catalog's row slice and set it, so
	// consumers that need rows can skip gathering. Operators that reshape the
	// batch construct fresh Batch values without it, so staleness cannot
	// leak.
	Rows []datum.Row
}

// Len returns the number of selected rows in the batch.
func (b *Batch) Len() int { return len(b.Idx) }

// Operator is a physical operator compiled for execution: Open, then Next
// until it returns a nil batch, then Close.
type Operator interface {
	Open() error
	// Next returns the next non-empty batch of at most max rows, or
	// (nil, nil) at end of stream. max >= 1 is the most rows the consumer
	// will take, and it will keep pulling until it has that many or the
	// stream ends, so an operator may read exactly as much input as max rows
	// of output need and no more; unbounded means the consumer drains.
	Next(max int) (*Batch, error)
	Close() error
}

// Engine selects an execution engine: the batch engine or a registered
// Backend.
type Engine int

// Available engines. The value 1 belonged to a retired row-at-a-time engine
// and is left unassigned, so it can never alias another engine in a cache
// key.
const (
	// EngineBatch is the production engine in this package. The default.
	EngineBatch Engine = 0
	// EngineRef is the independent reference interpreter
	// (internal/refengine), registered through the Backend seam in
	// backend.go. It evaluates logical trees directly and shares no
	// evaluation code with the batch engine, which is what makes it a usable
	// cross-check oracle.
	EngineRef Engine = 2
)

// String returns the engine name as spelled in reports and benchmarks;
// an ID that names no engine renders as engine(N).
func (e Engine) String() string {
	if e == EngineBatch {
		return "batch"
	}
	if b := backendFor(e); b != nil {
		return b.Name()
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// RunEngine executes a plan under the chosen engine with RunMax's caps. An
// engine ID that is neither EngineBatch nor registered is an error.
func RunEngine(eng Engine, plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	if b := backendFor(eng); b != nil {
		return b.RunPlan(plan, cat, maxRows, maxWork)
	}
	if eng != EngineBatch {
		return nil, fmt.Errorf("exec: unknown engine %v", eng)
	}
	var budget *int64
	if maxWork > 0 {
		b := maxWork
		budget = &b
	}
	it, err := buildBatchIter(plan, cat, budget, nil)
	if err != nil {
		return nil, err
	}
	return runBatch(it, maxRows)
}

// runBatch opens, drains and closes a batch iterator and gathers its rows;
// maxRows > 0 caps the result size. A Close error on an otherwise successful
// run is a real failure and must not be swallowed.
func runBatch(it Operator, maxRows int) (out []datum.Row, err error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := it.Close(); cerr != nil && err == nil {
			out, err = nil, cerr
		}
	}()
	for {
		b, err := it.Next(unbounded)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if maxRows > 0 && len(out)+b.Len() > maxRows {
			return nil, ErrRowLimit
		}
		out = append(out, gatherRows(b)...)
	}
}

// gatherRows materializes a batch into rows backed by one shared slab
// allocation, written column-at-a-time: a per-row make() dominates the
// profile of scan-heavy plans. Batches that carry a row view skip even the
// slab — a bare scan returns the catalog's own rows, zero-copy.
func gatherRows(b *Batch) []datum.Row {
	if b.Rows != nil {
		return b.Rows
	}
	width := len(b.Cols)
	n := b.Len()
	slab := make([]datum.Datum, n*width)
	for c := range b.Cols {
		d := b.Cols[c].D
		for k, ri := range b.Idx {
			slab[k*width+c] = d[ri]
		}
	}
	rows := make([]datum.Row, n)
	for k := range rows {
		rows[k] = slab[k*width : (k+1)*width : (k+1)*width]
	}
	return rows
}

// buildBatchIter compiles a plan into a batch iterator tree. A non-nil
// budget threads RunMax's work accounting through every operator: one unit
// per row each operator emits. A non-nil stats is the plan's analyze node;
// the children's nodes are attached to it, and each operator's emitted rows
// are counted into its node.
func buildBatchIter(plan *physical.Expr, cat *catalog.Catalog, budget *int64, stats *OpStats) (Operator, error) {
	// Every operator but a concat has at most two children; a fixed buffer
	// keeps the list off the heap on a path micro-plans take by the million.
	var buf [2]Operator
	kids := buf[:0]
	for _, c := range plan.Children {
		var kidStats *OpStats
		if stats != nil {
			kidStats = newOpStats(c)
			stats.Children = append(stats.Children, kidStats)
		}
		k, err := buildBatchIter(c, cat, budget, kidStats)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	var bit Operator
	switch plan.Op {
	case physical.OpScan:
		t, err := cat.Table(plan.Table)
		if err != nil {
			return nil, err
		}
		bit = &batchScan{table: t}
	case physical.OpFilter:
		bit = &batchFilter{
			child: kids[0], pred: plan.Filter,
			ve: scalar.VecEval{Env: envOf(plan.Children[0].OutputCols())},
		}
	case physical.OpProject:
		bit = &batchProject{
			child: kids[0], items: plan.Projs,
			ve: scalar.VecEval{Env: envOf(plan.Children[0].OutputCols())},
		}
	case physical.OpHashJoin, physical.OpNLJoin:
		bit = newBatchHashJoin(plan, kids[0], kids[1])
	case physical.OpMergeJoin:
		if plan.JoinType != physical.JoinInner {
			return nil, fmt.Errorf("exec: merge join supports inner joins only, got %s", plan.JoinType)
		}
		bit = newBatchHashJoin(plan,
			keySort(plan.Children[0], plan.EquiLeft, kids[0]),
			keySort(plan.Children[1], plan.EquiRight, kids[1]))
	case physical.OpHashAgg, physical.OpSortAgg:
		bit = &batchAgg{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			ve:     scalar.VecEval{Env: envOf(plan.Children[0].OutputCols())},
			sorted: plan.Op == physical.OpSortAgg,
		}
	case physical.OpSort:
		bit = newBatchSort(plan.Children[0], plan.Keys, kids[0])
	case physical.OpLimit:
		bit = &batchLimit{child: kids[0], n: plan.N}
	case physical.OpConcat:
		bit = &batchConcat{plan: plan, kids: slices.Clone(kids)}
	default:
		return nil, fmt.Errorf("exec: unsupported physical operator %s", plan.Op)
	}
	if budget != nil || stats != nil {
		bit = &batchMeter{child: bit, budget: budget, stats: stats}
	}
	return bit, nil
}

// batchMeter counts the rows one operator emits: against the work budget
// the whole plan shares (plans execute single-threaded, so a plain counter
// works) and into the operator's analyze node, whichever are set.
type batchMeter struct {
	child  Operator
	budget *int64
	stats  *OpStats
}

func (m *batchMeter) Open() error {
	if m.stats != nil {
		m.stats.ActRows = 0
	}
	return m.child.Open()
}

func (m *batchMeter) Next(max int) (*Batch, error) {
	b, err := m.child.Next(max)
	if b != nil {
		if err := m.charge(b.Len()); err != nil {
			return nil, err
		}
	}
	return b, err
}

// charge records n emitted rows, failing with ErrRowLimit once the budget
// is overdrawn.
func (m *batchMeter) charge(n int) error {
	if m.stats != nil {
		m.stats.ActRows += int64(n)
	}
	if m.budget != nil {
		*m.budget -= int64(n)
		if *m.budget < 0 {
			return ErrRowLimit
		}
	}
	return nil
}

func (m *batchMeter) Close() error { return m.child.Close() }

// ---- scan -------------------------------------------------------------------

// batchScan windows the catalog's cached column vectors: zero copies, zero
// per-row work.
type batchScan struct {
	table *catalog.Table
	cols  []datum.Vec
	idx   []int
	pos   int
	out   Batch
}

func (s *batchScan) Open() error {
	s.cols = s.table.ColumnData()
	s.idx = s.table.SeqIdx()
	s.pos = 0
	return nil
}

func (s *batchScan) Next(max int) (*Batch, error) {
	if s.pos >= len(s.idx) {
		return nil, nil
	}
	end := s.pos + min(batchSize, max, len(s.idx)-s.pos)
	// SeqIdx is the identity selection, so the same window of the catalog's
	// row slice is this batch's row view: consumers that materialize rows
	// take it as-is instead of slab-copying what the catalog already stores.
	s.out = Batch{Cols: s.cols, Idx: s.idx[s.pos:end], Rows: s.table.Rows[s.pos:end]}
	s.pos = end
	return &s.out, nil
}

func (s *batchScan) Close() error { return nil }

// ---- filter -----------------------------------------------------------------

// batchFilter shrinks the selection vector in place; the column vectors flow
// through untouched. It asks its child for no more rows than its own
// consumer still wants: at most that many can pass.
type batchFilter struct {
	child Operator
	pred  scalar.Expr
	ve    scalar.VecEval
	sel   []int
	out   Batch
}

func (f *batchFilter) Open() error {
	if f.sel == nil {
		f.sel = getSel()
	}
	return f.child.Open()
}

func (f *batchFilter) Next(max int) (*Batch, error) {
	for {
		b, err := f.child.Next(max)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		sel, err := f.ve.EvalPred(f.pred, b.Cols, b.Idx, f.sel)
		if err != nil {
			return nil, err
		}
		f.sel = sel
		if len(sel) == 0 {
			continue
		}
		f.out = Batch{Cols: b.Cols, Idx: sel}
		return &f.out, nil
	}
}

func (f *batchFilter) Close() error {
	putSel(f.sel)
	f.sel = nil
	return f.child.Close()
}

// ---- project ----------------------------------------------------------------

// batchProject evaluates each projection once per batch into reused output
// vectors.
type batchProject struct {
	child Operator
	items []logical.ProjItem
	ve    scalar.VecEval
	vecs  []datum.Vec
	out   Batch
}

func (p *batchProject) Open() error {
	if p.vecs == nil {
		p.vecs = getVecs(len(p.items))
	}
	return p.child.Open()
}

func (p *batchProject) Next(max int) (*Batch, error) {
	b, err := p.child.Next(max)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	for i, item := range p.items {
		if err := p.ve.Eval(item.E, b.Cols, b.Idx, &p.vecs[i]); err != nil {
			return nil, err
		}
	}
	p.out = Batch{Cols: p.vecs, Idx: denseIota[:b.Len()]}
	return &p.out, nil
}

func (p *batchProject) Close() error {
	putVecs(p.vecs)
	p.vecs = nil
	return p.child.Close()
}

// ---- limit ------------------------------------------------------------------

// batchLimit passes through the first n rows, asking its child for no more
// than it still needs, and never pulls the child again once it has them.
type batchLimit struct {
	child   Operator
	n, seen int64
}

func (l *batchLimit) Open() error { l.seen = 0; return l.child.Open() }

func (l *batchLimit) Next(max int) (*Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next(int(min(int64(max), l.n-l.seen)))
	if b != nil {
		l.seen += int64(b.Len())
	}
	return b, err
}

func (l *batchLimit) Close() error { return l.child.Close() }

// ---- concat (UNION ALL) -----------------------------------------------------

// batchConcat streams its children in order, passing each child's batch
// through with its columns remapped to the output layout. Every child is
// opened in Open, so blocking operators in later branches do their work
// even when a Limit stops the stream before reaching them.
type batchConcat struct {
	plan *physical.Expr
	kids []Operator
	cur  int
	maps [][]int // per child: output position -> child slot
	cols []datum.Vec
	out  Batch
}

func (c *batchConcat) Open() error {
	c.cur = 0
	c.maps = make([][]int, len(c.kids))
	for i, kid := range c.kids {
		if err := kid.Open(); err != nil {
			return err
		}
		env := envOf(c.plan.Children[i].OutputCols())
		m := make([]int, len(c.plan.OutCols))
		for j := range c.plan.OutCols {
			slot, ok := env[c.plan.InputCols[i][j]]
			if !ok {
				return fmt.Errorf("exec: concat input column c%d missing from child %d", c.plan.InputCols[i][j], i)
			}
			m[j] = slot
		}
		c.maps[i] = m
	}
	return nil
}

func (c *batchConcat) Next(max int) (*Batch, error) {
	for c.cur < len(c.kids) {
		b, err := c.kids[c.cur].Next(max)
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.cur++
			continue
		}
		c.cols = c.cols[:0]
		for _, slot := range c.maps[c.cur] {
			c.cols = append(c.cols, b.Cols[slot])
		}
		c.out = Batch{Cols: c.cols, Idx: b.Idx}
		return &c.out, nil
	}
	return nil, nil
}

func (c *batchConcat) Close() error {
	var first error
	for _, k := range c.kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- sort -------------------------------------------------------------------

// batchSort drains its input into column vectors in Open and emits it
// through a stably sorted selection vector: ties keep input order.
type batchSort struct {
	child Operator
	keys  []logical.SortKey
	env   scalar.Env
	width int
	vecs  []datum.Vec
	perm  []int
	pos   int
	out   Batch
}

// keySort sorts a merge join input ascending on its equi-key columns. It is
// internal to the join and carries no budget or analyze meter: the merge
// join's cost is its inputs' rows and its own output.
func keySort(input *physical.Expr, cols []scalar.ColumnID, child Operator) *batchSort {
	keys := make([]logical.SortKey, len(cols))
	for i, c := range cols {
		keys[i] = logical.SortKey{Col: c}
	}
	return newBatchSort(input, keys, child)
}

func newBatchSort(input *physical.Expr, keys []logical.SortKey, child Operator) *batchSort {
	cols := input.OutputCols()
	return &batchSort{child: child, keys: keys, env: envOf(cols), width: len(cols)}
}

func (s *batchSort) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	// Resolve key slots up front: a sort key missing from the input is a
	// plan-construction bug and must fail loudly, not silently sort by the
	// column in slot 0.
	slots := make([]int, len(s.keys))
	for i, k := range s.keys {
		slot, ok := s.env[k.Col]
		if !ok {
			return fmt.Errorf("exec: sort key column c%d not in input", k.Col)
		}
		slots[i] = slot
	}
	// Fresh vectors, not pooled ones: they grow to the whole input, and a
	// pooled vector keeps its capacity, so one large sort would pin that
	// memory under every later batch-sized operator that drew it.
	s.vecs = make([]datum.Vec, s.width)
	s.perm = s.perm[:0]
	for {
		b, err := s.child.Next(unbounded)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for c := range s.vecs {
			s.vecs[c].AppendGather(b.Cols[c].D, b.Idx)
		}
		for range b.Idx {
			s.perm = append(s.perm, len(s.perm))
		}
	}
	// Ties fall back to input position, so the unstable pattern-defeating
	// quicksort yields the stable order at O(n log n).
	slices.SortFunc(s.perm, func(a, b int) int {
		for ki, k := range s.keys {
			col := s.vecs[slots[ki]].D
			if c := datum.TotalCompare(col[a], col[b]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return a - b
	})
	s.pos = 0
	return nil
}

func (s *batchSort) Next(max int) (*Batch, error) {
	if s.pos >= len(s.perm) {
		return nil, nil
	}
	end := s.pos + min(batchSize, max, len(s.perm)-s.pos)
	s.out = Batch{Cols: s.vecs, Idx: s.perm[s.pos:end]}
	s.pos = end
	return &s.out, nil
}

func (s *batchSort) Close() error {
	s.vecs, s.perm = nil, nil
	return s.child.Close()
}
