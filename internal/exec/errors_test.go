package exec

import (
	"errors"
	"strings"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// TestSortMissingKeyColumn: a sort key absent from the input must fail the
// execution. The old implementation silently fell back to slot 0, producing
// a wrong-but-plausible ordering that poisoned the correctness oracle.
func TestSortMissingKeyColumn(t *testing.T) {
	plan := sortPlan(scanT1(), logical.SortKey{Col: 99})
	_, err := Run(plan, testCatalog())
	if err == nil || !strings.Contains(err.Error(), "sort key column c99") {
		t.Fatalf("err = %v, want missing sort key column error", err)
	}
	// RunAnalyze runs the same engine and must fail identically.
	if _, _, err := RunAnalyze(plan, testCatalog()); err == nil {
		t.Error("RunAnalyze must reject the same plan")
	}
}

// TestJoinMissingKeyColumn: hash and merge joins must reject equi-key
// columns that are not produced by their inputs instead of probing slot 0.
func TestJoinMissingKeyColumn(t *testing.T) {
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpMergeJoin} {
		for _, side := range []string{"left", "right"} {
			plan := joinPlan(op, physical.JoinInner)
			if side == "left" {
				plan.EquiLeft = []scalar.ColumnID{99}
			} else {
				plan.EquiRight = []scalar.ColumnID{99}
			}
			_, err := Run(plan, testCatalog())
			if err == nil || !strings.Contains(err.Error(), "join key column c99") ||
				!strings.Contains(err.Error(), side) {
				t.Errorf("%s/%s: err = %v, want missing join key column error", op, side, err)
			}
		}
	}
}

// failingCloseIter yields its rows as one batch, then optionally fails on
// Next, and fails on Close.
type failingCloseIter struct {
	rows     []datum.Row
	done     bool
	nextErr  error
	closeErr error
	out      Batch
}

func (f *failingCloseIter) Open() error { f.done = false; return nil }

func (f *failingCloseIter) Next(max int) (*Batch, error) {
	if f.done {
		return nil, f.nextErr
	}
	f.done = true
	cols := datum.ColumnVecs(f.rows, 1)
	f.out = Batch{Cols: cols, Idx: denseIota[:len(f.rows)]}
	return &f.out, nil
}

func (f *failingCloseIter) Close() error { return f.closeErr }

// TestRunPropagatesCloseError: a Close failure after a clean scan must not
// be swallowed — resources failing to release can invalidate the results.
func TestRunPropagatesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	it := &failingCloseIter{rows: intRows(1, 2), closeErr: closeErr}
	rows, err := runBatch(it, 0)
	if !errors.Is(err, closeErr) {
		t.Fatalf("err = %v, want the Close error", err)
	}
	if rows != nil {
		t.Errorf("rows = %v, want nil when Close fails", rows)
	}
}

// TestRunPrefersNextError: when both Next and Close fail, the Next error is
// the root cause and must win.
func TestRunPrefersNextError(t *testing.T) {
	nextErr := errors.New("next failed")
	it := &failingCloseIter{rows: intRows(1), nextErr: nextErr, closeErr: errors.New("close failed")}
	_, err := runBatch(it, 0)
	if !errors.Is(err, nextErr) {
		t.Fatalf("err = %v, want the Next error", err)
	}
}
