package exec

import (
	"fmt"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// aggState accumulates one aggregate over one group.
type aggState struct {
	count  int64 // non-null inputs (or all rows for COUNT(*))
	sumI   int64
	sumF   float64
	allInt bool
	min    datum.Datum
	max    datum.Datum
	sawRow bool
}

func newAggState() *aggState {
	return &aggState{allInt: true, min: datum.Null, max: datum.Null}
}

func (s *aggState) add(d datum.Datum, op scalar.AggOp) error {
	if op == scalar.AggCountStar {
		s.count++
		return nil
	}
	if d.IsNull() {
		return nil
	}
	s.count++
	s.sawRow = true
	switch d.K {
	case datum.KindInt, datum.KindDate:
		s.sumI += d.I
		s.sumF += float64(d.I)
	case datum.KindFloat:
		s.allInt = false
		s.sumF += d.F
	default:
		// SUM/AVG over a non-numeric input used to fall through here without
		// accumulating anything, so result() silently returned 0.0 — a wrong
		// answer the differential oracle would then trust. Surface it as an
		// execution error instead. COUNT/MIN/MAX are defined for any kind
		// (MIN/MAX order mixed kinds by datum.TotalCompare) and stay legal.
		if op == scalar.AggSum || op == scalar.AggAvg {
			return fmt.Errorf("exec: %s over non-numeric %s value", op, d.TypeOf())
		}
		s.allInt = false
	}
	if s.min.IsNull() || datum.TotalCompare(d, s.min) < 0 {
		s.min = d
	}
	if s.max.IsNull() || datum.TotalCompare(d, s.max) > 0 {
		s.max = d
	}
	return nil
}

func (s *aggState) result(op scalar.AggOp) datum.Datum {
	switch op {
	case scalar.AggCountStar, scalar.AggCount:
		return datum.NewInt(s.count)
	case scalar.AggSum:
		if !s.sawRow {
			return datum.Null
		}
		if s.allInt {
			return datum.NewInt(s.sumI)
		}
		return datum.NewFloat(s.sumF)
	case scalar.AggMin:
		return s.min
	case scalar.AggMax:
		return s.max
	case scalar.AggAvg:
		if s.count == 0 {
			return datum.Null
		}
		return datum.NewFloat(s.sumF / float64(s.count))
	}
	return datum.Null
}

// aggGroup is one group of an aggregation: its key, its group-column values
// and one accumulator per aggregate.
type aggGroup struct {
	key    string
	rep    datum.Row // group column values
	states []*aggState
}
