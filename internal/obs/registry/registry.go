// Package registry is the live metrics registry behind the campaign
// control plane: counters, gauges, and fixed-bucket histograms keyed by
// name plus label pairs, in the Prometheus data model.
//
// It complements the probe rows the observation pass hands its obs.Sink
// (the virtual-time *series*) with *current-value* metrics that an HTTP
// monitor can scrape while a simulation — or a whole campaign of them —
// is still running.
// Two properties drive the design:
//
//   - Determinism. Metric updates are plain arithmetic on values the
//     simulation already maintains; the registry schedules no events,
//     draws no random numbers, and is never read by scheduling code, so
//     attaching it cannot perturb a run's Results. One simulation writes
//     one registry; a campaign merges its runs' registries with Fold in
//     a fixed run order, so even float sums are bit-identical whatever
//     the worker count. Gather output is ordered by family registration
//     and sorted label values, never map order.
//
//   - Concurrency. The monitor scrapes a registry from an HTTP handler
//     while its simulation (or a campaign's fold) updates it. All value
//     updates are lock-free atomics; the registry mutex guards only
//     registration and snapshotting.
package registry

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"chicsim/internal/intern"
)

// Kind is the metric type of a family.
type Kind uint8

const (
	// CounterKind is a monotone running total.
	CounterKind Kind = iota
	// GaugeKind is an instantaneous level, set from the owning goroutine.
	GaugeKind
	// HistogramKind is a fixed-bucket distribution of observations.
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case CounterKind:
		return "counter"
	case GaugeKind:
		return "gauge"
	case HistogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds metric families. The zero value is not usable; call New.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	onGather []func()
	hasRT    bool // runtime probe installed (see RegisterRuntimeProbe)
}

// OnGather registers fn to run at the start of every Gather, before the
// families snapshot. Gauges whose source is pull-based (sampled on
// scrape, like the Go runtime probe) refresh themselves here rather than
// needing a background updater.
func (r *Registry) OnGather(fn func()) {
	if fn == nil {
		panic("registry: OnGather with nil function")
	}
	r.mu.Lock()
	r.onGather = append(r.onGather, fn)
	r.mu.Unlock()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label-name set.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, +Inf implicit

	// Series storage, guarded by mu. Labels are almost always absent or a
	// single value drawn from a small vocabulary, so the two common cases
	// avoid string-keyed maps entirely: a label-less family has one series
	// (solo), and a 1-label family interns the value to a dense id and
	// indexes a slice with it. Only families with >= 2 labels fall back to
	// joining the values into a map key.
	mu       sync.Mutex
	solo     *child            // len(labels) == 0
	vals     intern.Table      // len(labels) == 1: value -> dense id
	byID     []*child          // len(labels) == 1: dense id -> series
	children map[string]*child // len(labels) >= 2, lazily allocated
}

// child is one (family, label-values) time series.
type child struct {
	labelVals []string
	bits      atomic.Uint64 // float64 value for counters and gauges
	hist      *histState
}

// histState is the lock-free histogram storage: per-bucket counts (last
// slot is the +Inf overflow), total count, and the sum of observations.
type histState struct {
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// register returns the family for name, creating it on first use. A
// re-registration with a different kind, label set, or bucket layout is a
// programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("registry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("registry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.byName[name]; f != nil {
		if f.kind != kind || !slices.Equal(f.labels, labels) || !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("registry: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("registry: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch len(f.labels) {
	case 0:
		if f.solo == nil {
			f.solo = f.newChild(values)
		}
		return f.solo
	case 1:
		id := f.vals.Intern(values[0])
		for int(id) >= len(f.byID) {
			f.byID = append(f.byID, nil)
		}
		if c := f.byID[id]; c != nil {
			return c
		}
		c := f.newChild(values)
		f.byID[id] = c
		return c
	default:
		key := strings.Join(values, "\x00")
		if c := f.children[key]; c != nil {
			return c
		}
		if f.children == nil {
			f.children = make(map[string]*child)
		}
		c := f.newChild(values)
		f.children[key] = c
		return c
	}
}

// newChild builds a series cell for the given label values. Caller holds
// f.mu and is responsible for filing the child under its key.
func (f *family) newChild(values []string) *child {
	c := &child{labelVals: append([]string(nil), values...)}
	if f.kind == HistogramKind {
		c.hist = &histState{counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	return c
}

// series appends every live child to dst and returns it. Caller holds
// f.mu. Order is unspecified; Gather sorts by label values afterwards.
func (f *family) series(dst []*child) []*child {
	if f.solo != nil {
		dst = append(dst, f.solo)
	}
	for _, c := range f.byID {
		if c != nil {
			dst = append(dst, c)
		}
	}
	for _, c := range f.children {
		dst = append(dst, c)
	}
	return dst
}

// lookup returns the child for the given label values without creating
// it, or nil. Caller holds f.mu; len(values) must equal len(f.labels).
func (f *family) lookup(values []string) *child {
	switch len(f.labels) {
	case 0:
		return f.solo
	case 1:
		if id, ok := f.vals.Lookup(values[0]); ok && int(id) < len(f.byID) {
			return f.byID[id]
		}
		return nil
	default:
		return f.children[strings.Join(values, "\x00")]
	}
}

// CounterVec is a counter family; With yields one labelled counter.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family; With yields one labelled gauge.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family; With yields one labelled histogram.
type HistogramVec struct{ f *family }

// Counter registers (or finds) a counter family. Registration is
// idempotent: registering a family again returns the same cells.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, CounterKind, labels, nil)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, GaugeKind, labels, nil)}
}

// Histogram registers (or finds) a fixed-bucket histogram family. buckets
// are ascending upper bounds; a final +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("registry: %q buckets not ascending: %v", name, buckets))
		}
	}
	return &HistogramVec{r.register(name, help, HistogramKind, labels, buckets)}
}

// With returns the counter for the given label values (created on first
// use). Hot paths should call With once and retain the handle.
func (v *CounterVec) With(values ...string) Counter { return Counter{v.f.child(values)} }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) Gauge { return Gauge{v.f.child(values)} }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) Histogram {
	return Histogram{v.f.child(values), v.f.buckets}
}

// Counter is a handle to one monotone series. The zero value is a no-op,
// so call sites can hold unconditionally-usable handles on runs where
// metrics are disabled.
type Counter struct{ c *child }

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas panic: a shrinking counter
// upstream is a bug worth surfacing, not averaging away.
func (c Counter) Add(v float64) {
	if c.c == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("registry: counter Add(%v)", v))
	}
	addFloat(&c.c.bits, v)
}

// Value returns the current total.
func (c Counter) Value() float64 {
	if c.c == nil {
		return 0
	}
	return math.Float64frombits(c.c.bits.Load())
}

// Gauge is a handle to one instantaneous series. The zero value is a
// no-op.
type Gauge struct{ c *child }

// Set stores the current level.
func (g Gauge) Set(v float64) {
	if g.c == nil {
		return
	}
	g.c.bits.Store(math.Float64bits(v))
}

// Add shifts the current level.
func (g Gauge) Add(v float64) {
	if g.c == nil {
		return
	}
	addFloat(&g.c.bits, v)
}

// Value returns the current level.
func (g Gauge) Value() float64 {
	if g.c == nil {
		return 0
	}
	return math.Float64frombits(g.c.bits.Load())
}

// Histogram is a handle to one fixed-bucket distribution. The zero value
// is a no-op.
type Histogram struct {
	c       *child
	buckets []float64
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	if h.c == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.c.hist.counts[i].Add(1)
	h.c.hist.count.Add(1)
	addFloat(&h.c.hist.sumBits, v)
}

// Sample is one series of a gathered family.
type Sample struct {
	LabelValues []string
	Value       float64    // counters and gauges
	Hist        *HistValue // histograms
}

// HistValue is a histogram snapshot in Prometheus shape: cumulative
// counts per upper bound, plus the +Inf total and the observation sum.
type HistValue struct {
	UpperBounds []float64 // ascending; +Inf is implicit as the last bucket
	CumCounts   []uint64  // len(UpperBounds)+1, cumulative, last = Count
	Count       uint64
	Sum         float64
}

// Family is a gathered metric family.
type Family struct {
	Name       string
	Help       string
	Kind       Kind
	LabelNames []string
	Samples    []Sample
}

// Gather snapshots every family: families in registration order, samples
// sorted by label values. The ordering makes output byte-comparable
// across runs; values are read atomically, so gathering concurrently with
// updates sees each series' latest committed value.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	hooks := append([]func(){}, r.onGather...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		gf := Family{Name: f.name, Help: f.help, Kind: f.kind, LabelNames: f.labels}
		f.mu.Lock()
		children := f.series(nil)
		f.mu.Unlock()
		slices.SortFunc(children, func(a, b *child) int { return slices.Compare(a.labelVals, b.labelVals) })
		for _, c := range children {
			s := Sample{LabelValues: c.labelVals}
			if f.kind == HistogramKind {
				hv := &HistValue{
					UpperBounds: f.buckets,
					CumCounts:   make([]uint64, len(c.hist.counts)),
				}
				var cum uint64
				for i := range c.hist.counts {
					cum += c.hist.counts[i].Load()
					hv.CumCounts[i] = cum
				}
				hv.Count = c.hist.count.Load()
				hv.Sum = math.Float64frombits(c.hist.sumBits.Load())
				s.Hist = hv
			} else {
				s.Value = math.Float64frombits(c.bits.Load())
			}
			gf.Samples = append(gf.Samples, s)
		}
		out = append(out, gf)
	}
	return out
}

// Fold adds src's series into r: counters add, histogram buckets, counts
// and sums add, and a gauge takes src's value. src's families register in
// r in src's order, so a family conflicting with one r already holds
// panics, as re-registration does. Folding the same registries in the
// same order gives bit-identical float sums; src must not be updated
// while it is folded.
func (r *Registry) Fold(src *Registry) {
	src.mu.Lock()
	fams := append([]*family(nil), src.families...)
	src.mu.Unlock()
	for _, sf := range fams {
		df := r.register(sf.name, sf.help, sf.kind, sf.labels, sf.buckets)
		sf.mu.Lock()
		children := sf.series(nil)
		sf.mu.Unlock()
		for _, sc := range children {
			dc := df.child(sc.labelVals)
			switch sf.kind {
			case CounterKind:
				addFloat(&dc.bits, math.Float64frombits(sc.bits.Load()))
			case GaugeKind:
				dc.bits.Store(sc.bits.Load())
			case HistogramKind:
				for i := range sc.hist.counts {
					dc.hist.counts[i].Add(sc.hist.counts[i].Load())
				}
				dc.hist.count.Add(sc.hist.count.Load())
				addFloat(&dc.hist.sumBits, math.Float64frombits(sc.hist.sumBits.Load()))
			}
		}
	}
}

// Value looks up the current value of one counter or gauge series, mainly
// for status endpoints and tests. labelValues must match the family's
// label names in order. ok is false for unknown families or series.
func (r *Registry) Value(name string, labelValues ...string) (v float64, ok bool) {
	r.mu.Lock()
	f := r.byName[name]
	r.mu.Unlock()
	if f == nil || f.kind == HistogramKind || len(labelValues) != len(f.labels) {
		return 0, false
	}
	f.mu.Lock()
	c := f.lookup(labelValues)
	f.mu.Unlock()
	if c == nil {
		return 0, false
	}
	return math.Float64frombits(c.bits.Load()), true
}
