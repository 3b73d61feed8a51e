// Package obs is the live observability layer of the simulator: named
// probes sampled on the virtual clock (Registry), wall-clock progress
// telemetry for experiment sweeps (Progress), shared profiling/series
// flag wiring for commands (Flags), and run manifests for provenance
// (Manifest).
//
// The layer is strictly opt-in. A simulation with no registry schedules
// no sampling events and allocates nothing here, so the hot path is
// untouched when observability is off (bench_test.go's
// BenchmarkObservability pair measures exactly that). The registry owns
// no clock: its host calls Sample. In the simulator that host is core's
// one recurring observation event (Config.ObsInterval), an ordinary
// desim event, so the resulting time series is part of the deterministic
// event order: the same seed yields a bit-identical series regardless of
// how many simulations run in parallel around it.
package obs

import (
	"fmt"

	"chicsim/internal/metrics/stream"
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
// registered probe, in registration order.
type Point struct {
	T      float64
	Values []float64
}

// Series is the output of a run's sampling: probe names/kinds plus one
// Point per tick. Treat as read-only once produced.
type Series struct {
	Names  []string
	Kinds  []Kind
	Points []Point
}

// Column returns the time series of the named probe, or nil if no such
// probe was registered.
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

// Registry holds named probes and accumulates their sampled series. It is
// bound to a single simulation and, like the engine it samples on, is not
// safe for concurrent use.
type Registry struct {
	names  []string
	kinds  []Kind
	fns    []func() float64
	byName map[string]bool

	points []Point
	window *stream.Window // non-nil once LimitPoints caps the series
	maxPts int

	sink    Sink // optional streaming copy of every sample (see StreamTo)
	sinkErr error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(name string, kind Kind, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("obs: probe %q with nil function", name))
	}
	if r.byName[name] {
		panic(fmt.Sprintf("obs: duplicate probe %q", name))
	}
	r.byName[name] = true
	r.names = append(r.names, name)
	r.kinds = append(r.kinds, kind)
	r.fns = append(r.fns, fn)
}

// Gauge registers an instantaneous-level probe. Names must be unique
// within the registry; registration order fixes the column order of the
// resulting series.
func (r *Registry) Gauge(name string, fn func() float64) { r.register(name, GaugeKind, fn) }

// Counter registers a monotone running-total probe.
func (r *Registry) Counter(name string, fn func() float64) { r.register(name, CounterKind, fn) }

// Len returns the number of registered probes.
func (r *Registry) Len() int { return len(r.fns) }

// Sample evaluates every probe once and appends a Point at virtual time t.
func (r *Registry) Sample(t float64) {
	vals := make([]float64, len(r.fns))
	for i, fn := range r.fns {
		vals[i] = fn()
	}
	p := Point{T: t, Values: vals}
	if r.maxPts > 0 {
		if r.window == nil {
			isCounter := make([]bool, len(r.kinds))
			for i, k := range r.kinds {
				isCounter[i] = k == CounterKind
			}
			r.window = stream.NewWindow(r.maxPts, isCounter)
		}
		r.window.Add(p.T, p.Values)
	} else {
		r.points = append(r.points, p)
	}
	if r.sink != nil {
		if err := r.sink.Point(p); err != nil {
			r.sink = nil
			r.sinkErr = fmt.Errorf("obs: sink point: %w", err)
		}
	}
}

// LimitPoints caps the in-memory series at roughly max points: samples
// are funneled through a stride-doubling downsampling window
// (metrics/stream.Window) instead of an unbounded slice, so memory stays
// O(max) however long the run. Gauge columns average over each merged
// window and counter columns keep the window-end value. Call before the
// first Sample; probes registered later still work, but a window built on
// first Sample fixes the column count. A streaming sink (StreamTo) is
// unaffected — it still receives every raw sample.
func (r *Registry) LimitPoints(max int) {
	if len(r.points) > 0 || r.window != nil {
		panic("obs: LimitPoints after sampling started")
	}
	r.maxPts = max
}

// Series returns everything sampled so far.
func (r *Registry) Series() *Series {
	pts := r.points
	if r.window != nil {
		wpts := r.window.Points()
		pts = make([]Point, len(wpts))
		for i, wp := range wpts {
			pts[i] = Point{T: wp.T, Values: wp.Values}
		}
	}
	return &Series{Names: r.names, Kinds: r.kinds, Points: pts}
}
