// Package feedback implements telemetry-driven adaptive scheduling: an
// External Scheduler ("JobFeedback") and a Dataset Scheduler
// ("DataFeedback") that close the loop from the simulator's observability
// substrate back to policy. A Tracker ingests periodic samples of live
// queue lengths, link loads and backlogs, GIS snapshot age, and fault
// events, maintaining exponentially weighted moving averages (EWMAs) and
// decaying fault penalties. The policies blend those trends with the
// (possibly stale) GIS view the paper's static policies consume.
//
// Every telemetry weight defaults to zero, and with all weights zero the
// policies reduce *exactly* — including random-number consumption — to
// their static counterparts (JobDataPresent and DataLeastLoaded), which is
// the regression baseline DESIGN.md §14 specifies.
package feedback

import (
	"fmt"
	"math"

	"chicsim/internal/topology"
)

// Params holds every knob of the feedback policy pair. The zero value is
// valid and reduces both policies to their static baselines; the fields
// under "telemetry cadence" are structural and are defaulted by Normalize
// when unset.
type Params struct {
	// Telemetry cadence (structural; defaulted by Normalize).
	Interval   float64 `json:"interval,omitempty"`    // tracker sampling period (s)
	HalfLife   float64 `json:"half_life,omitempty"`   // EWMA half-life (s)
	FaultDecay float64 `json:"fault_decay,omitempty"` // fault-penalty half-life (s)

	// External Scheduler weights.
	//
	// QueueWeight w ∈ [0,1] blends the GIS load snapshot with the
	// tracker's trend-projected queue estimate and dispatch-pressure
	// correction: effLoad = (1−w·d)·gisLoad + w·d·predicted + w·pressure,
	// where d is the staleness discount (see Tracker.StalenessDiscount).
	QueueWeight float64 `json:"queue_weight,omitempty"`
	// FaultWeight converts a site's decaying fault score into equivalent
	// queued jobs when ranking candidate sites.
	FaultWeight float64 `json:"fault_weight,omitempty"`
	// CongestionWeight scales the route-backlog penalty (seconds of
	// queued bytes per link) added to predicted transfer times.
	CongestionWeight float64 `json:"congestion_weight,omitempty"`
	// SpreadSeconds, when > 0, enables the divert phase: once the best
	// data-holding site's estimated queue wait exceeds this, the ES
	// considers fetching the data to a cheaper site instead, diverting
	// only when the alternative wins by more than SpreadSeconds
	// (hysteresis against churn).
	SpreadSeconds float64 `json:"spread_seconds,omitempty"`

	// Dataset Scheduler knobs.
	//
	// TrendThreshold gates replication on congestion-adjusted popularity:
	// a file replicates only when count ≥ threshold/(1+boost·backlog).
	// 0 passes everything the core's popularity filter admitted.
	TrendThreshold float64 `json:"trend_threshold,omitempty"`
	// CongestionBoost controls how strongly network backlog (mean queued
	// seconds per link) lowers the replication gate: congested grids
	// replicate more eagerly, before fetch costs climb further.
	CongestionBoost float64 `json:"congestion_boost,omitempty"`
	// TransferWeight converts the predicted seconds to push a replica to
	// a target into equivalent queued jobs when ranking targets.
	TransferWeight float64 `json:"transfer_weight,omitempty"`
	// DSNeighborhood selects the replication candidate set: 0 = the
	// baseline's siblings-then-whole-grid widening, 1 = siblings only,
	// 2 = the whole grid from the start.
	DSNeighborhood int `json:"ds_neighborhood,omitempty"`
}

// Structural defaults applied by Normalize.
const (
	DefaultInterval   = 60.0
	DefaultHalfLife   = 180.0
	DefaultFaultDecay = 900.0
)

// DefaultParams returns the tuned knob settings (the EXPERIMENTS.md
// feedback sweep's winning point, found with cmd/gridtune).
func DefaultParams() Params {
	return Params{
		Interval:   DefaultInterval,
		HalfLife:   DefaultHalfLife,
		FaultDecay: DefaultFaultDecay,

		QueueWeight:      0.9,
		FaultWeight:      4,
		CongestionWeight: 0.5,
		SpreadSeconds:    120,

		TrendThreshold:  0,
		CongestionBoost: 0.2,
		TransferWeight:  0.05,
		DSNeighborhood:  0,
	}
}

// Normalize fills the structural cadence fields when unset. Weights are
// deliberately left untouched: an explicit zero weight means "off", which
// is what the exact-reduction guarantee relies on.
func (p *Params) Normalize() {
	if p.Interval <= 0 {
		p.Interval = DefaultInterval
	}
	if p.HalfLife <= 0 {
		p.HalfLife = DefaultHalfLife
	}
	if p.FaultDecay <= 0 {
		p.FaultDecay = DefaultFaultDecay
	}
}

// Validate rejects out-of-range knobs.
func (p *Params) Validate() error {
	switch {
	case p.Interval < 0 || p.HalfLife < 0 || p.FaultDecay < 0:
		return fmt.Errorf("feedback: negative cadence (interval %v, half-life %v, fault decay %v)",
			p.Interval, p.HalfLife, p.FaultDecay)
	case p.QueueWeight < 0 || p.QueueWeight > 1:
		return fmt.Errorf("feedback: QueueWeight = %v, must be in [0, 1]", p.QueueWeight)
	case p.FaultWeight < 0 || p.CongestionWeight < 0 || p.SpreadSeconds < 0:
		return fmt.Errorf("feedback: negative ES weight (fault %v, congestion %v, spread %v)",
			p.FaultWeight, p.CongestionWeight, p.SpreadSeconds)
	case p.TrendThreshold < 0 || p.CongestionBoost < 0 || p.TransferWeight < 0:
		return fmt.Errorf("feedback: negative DS weight (threshold %v, boost %v, transfer %v)",
			p.TrendThreshold, p.CongestionBoost, p.TransferWeight)
	case p.DSNeighborhood < 0 || p.DSNeighborhood > 2:
		return fmt.Errorf("feedback: DSNeighborhood = %d, must be 0 (widen), 1 (siblings), or 2 (grid)", p.DSNeighborhood)
	}
	return nil
}

// Sample is one telemetry observation, assembled by the host (core) from
// live — not GIS-snapshot — state.
type Sample struct {
	Now          float64   // virtual time of the observation
	QueueLens    []int     // per site: jobs waiting right now
	LinkLoads    []float64 // per link: bytes/sec currently flowing
	LinkBacklog  []float64 // per link: bytes still to be delivered
	LinkCapacity []float64 // per link: effective bandwidth (bytes/sec)
	GISAge       float64   // seconds since the GIS snapshot refreshed
}

// Tracker maintains the smoothed telemetry the feedback policies consume.
// It is strictly an observer: Observe and the Note hooks never touch
// simulation state or any random stream, so attaching one perturbs nothing
// but the event count. All methods are nil-receiver safe, returning zero
// telemetry, so policies constructed without a tracker degrade to their
// static baselines.
type Tracker struct {
	p     Params
	topo  *topology.Topology
	clock func() float64

	samples int
	lastT   float64

	queueEWMA []float64 // smoothed queue length per site
	queueRate []float64 // d(smoothed)/dt, jobs per second
	pressure  []float64 // decayed dispatches not yet visible in the GIS

	fault   []float64 // decaying fault score per site
	faultAt []float64 // virtual time fault[i] was last updated

	linkBusy    []float64 // EWMA of load/capacity per link
	linkBacklog []float64 // EWMA of backlog/capacity (seconds) per link

	gisAge float64
}

// NewTracker builds a tracker for the given topology. clock supplies the
// current virtual time (used to decay fault scores and project trends
// between samples); nil freezes the clock at zero.
func NewTracker(p Params, topo *topology.Topology, clock func() float64) *Tracker {
	p.Normalize()
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	var n, l int
	if topo != nil {
		n, l = topo.NumSites(), topo.NumLinks()
	}
	return &Tracker{
		p: p, topo: topo, clock: clock,
		queueEWMA: make([]float64, n),
		queueRate: make([]float64, n),
		pressure:  make([]float64, n),
		fault:     make([]float64, n),
		faultAt:   make([]float64, n),

		linkBusy:    make([]float64, l),
		linkBacklog: make([]float64, l),
	}
}

// Ready reports whether at least one sample has been observed.
func (t *Tracker) Ready() bool { return t != nil && t.samples > 0 }

// Observe ingests one telemetry sample.
func (t *Tracker) Observe(s Sample) {
	if t == nil {
		return
	}
	t.growSites(len(s.QueueLens))
	nl := max(len(s.LinkLoads), len(s.LinkBacklog), len(s.LinkCapacity))
	if nl > len(t.linkBusy) {
		t.linkBusy = grow(t.linkBusy, nl)
		t.linkBacklog = grow(t.linkBacklog, nl)
	}
	dt := s.Now - t.lastT
	if t.samples == 0 || dt <= 0 {
		dt = t.p.Interval
	}
	alpha := 1 - math.Exp2(-dt/t.p.HalfLife)
	if t.samples == 0 {
		alpha = 1 // seed the EWMAs with the first sample, no cold-start bias
	}
	for i, q := range s.QueueLens {
		prev := t.queueEWMA[i]
		next := prev + alpha*(float64(q)-prev)
		t.queueEWMA[i] = next
		if t.samples == 0 {
			t.queueRate[i] = 0 // a seed sample carries no trend
		} else {
			t.queueRate[i] = (next - prev) / dt
		}
	}
	if s.GISAge < t.gisAge {
		// The GIS refreshed since the last sample: queued dispatches are
		// now visible in its load snapshot, so the correction resets.
		for i := range t.pressure {
			t.pressure[i] = 0
		}
	} else {
		decay := math.Exp2(-dt / t.p.HalfLife)
		for i := range t.pressure {
			t.pressure[i] *= decay
		}
	}
	t.gisAge = s.GISAge
	for l := range t.linkBusy {
		capacity := 0.0
		if l < len(s.LinkCapacity) {
			capacity = s.LinkCapacity[l]
		}
		busy, backlog := 0.0, 0.0
		if capacity > 0 {
			if l < len(s.LinkLoads) {
				busy = s.LinkLoads[l] / capacity
			}
			if l < len(s.LinkBacklog) {
				backlog = s.LinkBacklog[l] / capacity
			}
		}
		t.linkBusy[l] += alpha * (busy - t.linkBusy[l])
		t.linkBacklog[l] += alpha * (backlog - t.linkBacklog[l])
	}
	t.lastT = s.Now
	t.samples++
}

// NoteDispatch records that the ES just sent a job to site s. Until the
// next GIS refresh this dispatch is invisible in Load snapshots; the
// pressure counter corrects for the resulting herding.
func (t *Tracker) NoteDispatch(s topology.SiteID) {
	if t == nil {
		return
	}
	t.growSites(int(s) + 1)
	t.pressure[s]++
}

// NoteFault records a crash or CE failure at site s. Fault scores decay
// exponentially with the FaultDecay half-life.
func (t *Tracker) NoteFault(s topology.SiteID) {
	if t == nil {
		return
	}
	t.growSites(int(s) + 1)
	now := t.clock()
	t.fault[s] = t.faultDecayed(s, now) + 1
	t.faultAt[s] = now
}

// FaultPenalty returns site s's current decayed fault score.
func (t *Tracker) FaultPenalty(s topology.SiteID) float64 {
	if t == nil {
		return 0
	}
	return t.faultDecayed(s, t.clock())
}

func (t *Tracker) faultDecayed(s topology.SiteID, now float64) float64 {
	if int(s) >= len(t.fault) || t.fault[s] == 0 {
		return 0
	}
	return t.fault[s] * math.Exp2(-(now-t.faultAt[s])/t.p.FaultDecay)
}

// growSites widens the per-site slices to hold at least n sites. The sim
// sizes them once from the topology; this only matters for standalone
// trackers built without one.
func (t *Tracker) growSites(n int) {
	if n <= len(t.queueEWMA) {
		return
	}
	t.queueEWMA = grow(t.queueEWMA, n)
	t.queueRate = grow(t.queueRate, n)
	t.pressure = grow(t.pressure, n)
	t.fault = grow(t.fault, n)
	t.faultAt = grow(t.faultAt, n)
}

func grow(s []float64, n int) []float64 {
	return append(s, make([]float64, n-len(s))...)
}

// PredictedLoad projects site s's smoothed queue length forward to the
// current virtual time along its EWMA trend (clamped at zero).
func (t *Tracker) PredictedLoad(s topology.SiteID) float64 {
	if t == nil || t.samples == 0 || int(s) >= len(t.queueEWMA) {
		return 0
	}
	proj := t.queueEWMA[s] + t.queueRate[s]*(t.clock()-t.lastT)
	if proj < 0 {
		return 0
	}
	return proj
}

// SmoothedLoad returns site s's EWMA queue length at the last sample.
func (t *Tracker) SmoothedLoad(s topology.SiteID) float64 {
	if t == nil || int(s) >= len(t.queueEWMA) {
		return 0
	}
	return t.queueEWMA[s]
}

// LoadTrend returns site s's smoothed queue growth rate in jobs/second.
func (t *Tracker) LoadTrend(s topology.SiteID) float64 {
	if t == nil || int(s) >= len(t.queueRate) {
		return 0
	}
	return t.queueRate[s]
}

// Pressure returns the decayed count of dispatches to s not yet reflected
// in the GIS load snapshot.
func (t *Tracker) Pressure(s topology.SiteID) float64 {
	if t == nil || int(s) >= len(t.pressure) {
		return 0
	}
	return t.pressure[s]
}

// StalenessDiscount maps the GIS snapshot age into [0, 1): 0 when the
// snapshot is fresh (trust it), approaching 1 as the age dwarfs the EWMA
// half-life (trust the tracker's own trend instead).
func (t *Tracker) StalenessDiscount() float64 {
	if t == nil || t.samples == 0 {
		return 0
	}
	return t.gisAge / (t.gisAge + t.p.HalfLife)
}

// RouteBacklogSeconds returns the worst smoothed per-link backlog (queued
// seconds of traffic) along the route between two sites.
func (t *Tracker) RouteBacklogSeconds(a, b topology.SiteID) float64 {
	if t == nil || t.samples == 0 || a == b {
		return 0
	}
	var buf [8]topology.LinkID
	worst := 0.0
	for _, l := range t.topo.AppendRoute(buf[:0], a, b) {
		if t.linkBacklog[l] > worst {
			worst = t.linkBacklog[l]
		}
	}
	return worst
}

// NetworkBacklogSeconds returns the mean smoothed per-link backlog over
// the whole grid — the DS's congestion-trend signal.
func (t *Tracker) NetworkBacklogSeconds() float64 {
	if t == nil || t.samples == 0 || len(t.linkBacklog) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range t.linkBacklog {
		sum += b
	}
	return sum / float64(len(t.linkBacklog))
}
