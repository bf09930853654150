package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
)

// The package once shipped a second, row-at-a-time executor. Before it was
// deleted, its answers on every plan the differential tests run were recorded
// in goldenPath: for each (test name, plan) pair, the rows in emission order
// (or the error), the ErrRowLimit verdict at every rung of workLadder and at
// the maxRows probe, the smallest work budget that does not trip, and the
// per-operator row counts of RunAnalyze. runEngines holds the batch engine
// to all of them.
const goldenPath = "testdata/row_engine_golden.json"

// workLadder is the maxWork budgets every golden plan is recorded under.
var workLadder = []int64{1, 7, 64, 1000, 50000}

// goldenMaxRows bounds the results stored row by row; larger results are
// held by count and digest only.
const goldenMaxRows = 200

// goldenRun is one recorded execution.
type goldenRun struct {
	// Rows is the result in emission order, each datum encoded by
	// encodeDatum; omitted when the result exceeds goldenMaxRows.
	Rows   [][]string `json:"rows,omitempty"`
	N      int        `json:"n"`
	Digest string     `json:"digest"`
	Err    string     `json:"err,omitempty"`
	// WorkCapped[i] is whether the plan fails with ErrRowLimit at
	// maxWork = workLadder[i].
	WorkCapped []bool `json:"work_capped"`
	// MaxRowsCapped is the verdict at maxRows = N/2, recorded when N > 1.
	MaxRowsCapped *bool `json:"max_rows_capped,omitempty"`
	// MinWork is the smallest maxWork (>= 1) the plan runs under without
	// ErrRowLimit: the plan's exact work total when it exceeds 1.
	MinWork int64 `json:"min_work"`
	// Analyze is RunAnalyze's tree rendered by analyzeShape.
	Analyze string `json:"analyze"`
}

// goldenKey identifies a recorded execution: the test that ran it and a
// fingerprint of the plan, so one test can record several plans and an
// edited plan cannot silently match a stale record.
func goldenKey(t testing.TB, plan *physical.Expr) string {
	sum := sha256.Sum256([]byte(plan.Hash()))
	return t.Name() + "@" + hex.EncodeToString(sum[:8])
}

// encodeDatum renders a datum losslessly with its kind: two datums encode
// equal iff they are the same Go value.
func encodeDatum(d datum.Datum) string {
	switch d.K {
	case datum.KindNull:
		return "null"
	case datum.KindInt:
		return "i:" + strconv.FormatInt(d.I, 10)
	case datum.KindDate:
		return "d:" + strconv.FormatInt(d.I, 10)
	case datum.KindFloat:
		return "f:" + strconv.FormatFloat(d.F, 'g', -1, 64)
	case datum.KindString:
		return "s:" + strconv.Quote(d.S)
	case datum.KindBool:
		return "b:" + strconv.FormatBool(d.B)
	}
	return fmt.Sprintf("?%d", d.K)
}

func encodeRows(rows []datum.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, d := range r {
			out[i][j] = encodeDatum(d)
		}
	}
	return out
}

// digestRows hashes the encoded rows in order.
func digestRows(rows []datum.Row) string {
	h := sha256.New()
	for _, r := range rows {
		for _, d := range r {
			h.Write([]byte(encodeDatum(d)))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// analyzeShape renders an analyze tree as operators and actual row counts,
// e.g. "HashJoin(Inner)=3[Scan(t1)=4,Scan(t2)=4]".
func analyzeShape(s *OpStats) string {
	var sb strings.Builder
	var walk func(x *OpStats)
	walk = func(x *OpStats) {
		sb.WriteString(x.Op.String())
		if x.Detail != "" {
			fmt.Fprintf(&sb, "(%s)", x.Detail)
		}
		fmt.Fprintf(&sb, "=%d", x.ActRows)
		if len(x.Children) > 0 {
			sb.WriteString("[")
			for i, c := range x.Children {
				if i > 0 {
					sb.WriteString(",")
				}
				walk(c)
			}
			sb.WriteString("]")
		}
	}
	walk(s)
	return sb.String()
}

var loadGolden = sync.OnceValues(func() (map[string]goldenRun, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var runs map[string]goldenRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %v", goldenPath, err)
	}
	return runs, nil
})

// goldenFor returns the recorded execution of plan under the running test.
func goldenFor(t testing.TB, plan *physical.Expr) goldenRun {
	t.Helper()
	runs, err := loadGolden()
	if err != nil {
		t.Fatalf("golden data: %v", err)
	}
	key := goldenKey(t, plan)
	g, ok := runs[key]
	if !ok {
		t.Fatalf("no recorded row-engine run for %s", key)
	}
	return g
}
