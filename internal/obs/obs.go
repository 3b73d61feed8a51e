// Package obs is the live observability layer of the simulator: the
// probe-series sinks that receive the rows sampled on the virtual clock
// (Sink, with Series as the in-memory one), wall-clock progress
// telemetry for experiment sweeps (Progress), the commands' shared flag
// parsing and observability flags (ParseFlags, Flags) with the session
// that opens and flushes what those flags ask for (Session), and run
// manifests for provenance (Manifest).
//
// The layer is strictly opt-in. A simulation with no observation
// interval schedules no sampling events and allocates nothing here, so
// the hot path is untouched when observability is off (bench_test.go's
// BenchmarkObservability pair measures exactly that). A sink owns no
// clock and reads no state: its host reads the probes and hands the sink
// one row per tick. In the simulator that host is core's one recurring
// observation event (Config.ObsInterval), an ordinary desim event, so the
// rows are part of the deterministic event order: the same seed yields a
// bit-identical series regardless of how many simulations run in
// parallel around it.
package obs

import (
	"fmt"
	"slices"
)

// Kind distinguishes probe semantics: a Gauge is an instantaneous level
// (queue depth, utilization), a Counter is a monotone running total
// (dispatches, evictions).
type Kind uint8

const (
	// GaugeKind marks an instantaneous level.
	GaugeKind Kind = iota
	// CounterKind marks a monotone running total.
	CounterKind
)

func (k Kind) String() string {
	switch k {
	case GaugeKind:
		return "gauge"
	case CounterKind:
		return "counter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Point is one sampling instant: the virtual time and the value of every
// probe, in column order.
type Point struct {
	T      float64
	Values []float64
}

// MaxSeriesPoints is the most points a Series holds.
const MaxSeriesPoints = 512

// Series is the in-memory Sink: it keeps a run's probe columns and
// sampled points so the run can be drawn once it ends (report.Heatmap,
// report.Timeline). Below MaxSeriesPoints ticks it holds one exact Point
// per tick. Whenever it fills, adjacent points merge pairwise and each
// later point spans twice as many ticks, so memory stays bounded however
// long the run and the points still cover all of it at uniform
// resolution. A merged point's gauge columns average the ticks it spans
// and its counter columns keep the last tick's value; the last point may
// span fewer ticks than the others. The merge arithmetic has a fixed
// order, so a merged series is as deterministic as the raw rows. Read
// the fields once the run has ended.
type Series struct {
	Names  []string
	Kinds  []Kind
	Points []Point

	stride int       // ticks per point
	n      int       // ticks in the last point while it is still open
	sum    []float64 // per column: the open point's gauge sum
}

// Begin starts an empty series with the given columns.
func (s *Series) Begin(names []string, kinds []Kind) error {
	s.Names, s.Kinds = slices.Clone(names), slices.Clone(kinds)
	s.Points, s.stride, s.n = nil, 1, 0
	s.sum = make([]float64, len(names))
	return nil
}

// Point adds one tick's row to the series.
func (s *Series) Point(p Point) error {
	if s.n == 0 {
		s.open()
	}
	last := &s.Points[len(s.Points)-1]
	last.T = p.T
	s.n++
	for i, v := range p.Values {
		if s.Kinds[i] == CounterKind {
			last.Values[i] = v
		} else {
			s.sum[i] += v
			last.Values[i] = s.sum[i] / float64(s.n)
		}
	}
	if s.n == s.stride {
		s.n = 0
		clear(s.sum)
		if len(s.Points) == MaxSeriesPoints {
			s.halve()
		}
	}
	return nil
}

// open appends the point the next ticks go into, reusing the values of a
// point merged away earlier when there is one.
func (s *Series) open() {
	if len(s.Points) == cap(s.Points) {
		s.Points = append(s.Points, Point{})
	} else {
		s.Points = s.Points[:len(s.Points)+1]
	}
	if last := &s.Points[len(s.Points)-1]; last.Values == nil {
		last.Values = make([]float64, len(s.Names))
	}
}

// halve merges the points pairwise in place and doubles the stride.
// Point i's values are overwritten only after they were read as part of
// pair i/2.
func (s *Series) halve() {
	half := len(s.Points) / 2
	for i := 0; i < half; i++ {
		a, b := s.Points[2*i].Values, s.Points[2*i+1]
		merged := s.Points[i].Values
		for c := range merged {
			if s.Kinds[c] == CounterKind {
				merged[c] = b.Values[c]
			} else {
				merged[c] = (a[c] + b.Values[c]) / 2
			}
		}
		s.Points[i].T = b.T
	}
	s.Points = s.Points[:half]
	s.stride *= 2
}

// Column returns the time series of the named probe, or nil if the
// series has no such probe.
func (s *Series) Column(name string) []float64 {
	if s == nil {
		return nil
	}
	for i, n := range s.Names {
		if n != name {
			continue
		}
		out := make([]float64, len(s.Points))
		for p, pt := range s.Points {
			out[p] = pt.Values[i]
		}
		return out
	}
	return nil
}
