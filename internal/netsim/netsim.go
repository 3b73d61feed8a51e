// Package netsim simulates wide-area data transfers over a routed topology
// using a fluid-flow model.
//
// The paper's contention model is: "We model network contention by keeping
// track of the number of simultaneous data transfers across a link and
// decreasing the bandwidth available for each transfer accordingly." That
// is the default EqualShare policy here: a link with bandwidth B and n
// concurrent flows gives each flow B/n, and a flow's end-to-end rate is the
// minimum share along its path. A max-min fair policy is provided as an
// ablation (see DESIGN.md §6).
//
// A change point is a flow start, finish or cancellation, or a link
// bandwidth change. Each link caches its equal share, and a per-link index
// of the active flows finds the flows on a changed link without walking
// any other route. Under EqualShare a change point visits only the flows
// it can re-rate: where a link's share fell, a flow's new rate is the
// lower of its rate and that share; where it rose, only a flow whose rate
// was that link's old share can speed up, and only such a flow walks its
// route. Progress is tracked lazily: a flow keeps its remaining bytes as of
// an anchor time, its rate, and its finish time anchor + remaining/rate,
// and only a flow whose rate actually changes is re-anchored. The link
// statistics are pure reads that project from the anchors.
//
// A Network keeps a single pending engine event, at the earliest finish
// among its running flows (ties to the earliest admitted). Active flows
// sit in admission order in a list where a removal leaves a hole instead
// of shifting its successors; holes are squeezed out once they outnumber
// the live flows. The earliest finish is tracked as finish times change,
// and each block of 64 positions keeps its own earliest finish, so when
// the tracked flow's finish rises or it leaves, only the blocks whose
// minimum left are rescanned before the block minima are compared. The
// event is rescheduled at every change point, so completions fire in
// exactly the (time, sequence) order that one event per flow, all
// rescheduled in admission order at every change point, would — see
// DESIGN.md §13.
package netsim

import (
	"fmt"
	"math"

	"chicsim/internal/desim"
	"chicsim/internal/topology"
)

// SharingPolicy selects how concurrent flows split link bandwidth.
type SharingPolicy int

const (
	// EqualShare is the paper's model: each flow on a link gets
	// bandwidth/#flows; a flow's rate is its minimum share on the path.
	EqualShare SharingPolicy = iota
	// MaxMinFair runs progressive filling so that bandwidth unused by
	// bottlenecked flows is redistributed to the others.
	MaxMinFair
)

func (p SharingPolicy) String() string {
	switch p {
	case EqualShare:
		return "EqualShare"
	case MaxMinFair:
		return "MaxMinFair"
	default:
		return fmt.Sprintf("SharingPolicy(%d)", int(p))
	}
}

// Flow is an in-progress transfer. Exposed fields are read-only snapshots
// maintained by the Network.
//
// Flow structs are pooled: when a transfer finishes or is cancelled the
// struct returns to the Network's free list and a later Transfer reuses
// it (with a fresh ID). A *Flow handle is therefore only valid between
// Transfer and the flow's completion or cancellation — exactly the window
// the simulator uses them in. The two scheduling closures are built once
// per struct and its route buffers survive reuse, so the steady-state
// transfer loop allocates nothing per flow.
type Flow struct {
	// What reflow touches comes first, filling one 64-byte cache line,
	// and the inline route storage a route walk reads follows it. Routes
	// on the hierarchical grids have at most 4 hops; deeper ones grow
	// onto the heap.
	path      []topology.LinkID
	rate      float64    // bytes/sec since anchor
	finish    desim.Time // anchor + remaining/rate; +Inf while stalled
	remaining float64    // bytes not yet delivered as of anchor
	anchor    desim.Time // the change point that last set rate
	mark      uint64     // reflow epoch that last visited the flow
	routeBuf  [4]topology.LinkID

	ord        int // position in Network.ordered while active
	ID         int
	Src, Dst   topology.SiteID
	Size       float64 // total bytes
	hopPos     []int32 // hopPos[k]: index of the flow in linkFlows[path[k]] while active
	done       func(*Flow)
	ev         desim.Event // pending startup-latency or local-delivery event
	localFn    func()      // zero-hop/zero-size delivery closure
	activateFn func()      // startup-latency expiry closure
	started    desim.Time
	active     bool // admitted to the sharing pool, not yet removed
	canceled   bool
	pooled     bool     // on the free list (double-release guard)
	hopBuf     [4]int32 // inline storage behind hopPos
}

// Remaining returns the bytes not yet delivered as of the last change
// point that altered the flow's rate.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the current transfer rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Started returns the virtual time the transfer began.
func (f *Flow) Started() desim.Time { return f.started }

// Network manages all concurrent flows over one topology.
type Network struct {
	eng    *desim.Engine
	topo   *topology.Topology
	policy SharingPolicy

	// latencyPerHop is a fixed startup delay per link crossed before a
	// flow begins moving bytes (propagation + protocol setup). 0 by
	// default — the paper models transfer cost purely as size/bandwidth.
	latencyPerHop float64

	// bwOverride holds dynamic per-link bandwidth overrides (failures,
	// degradations); -1 means "use the topology's nominal bandwidth".
	bwOverride []float64

	// Active flows in admission order. A removed flow leaves a hole (nil,
	// with +Inf in finishAt) instead of shifting its successors. Trailing
	// holes are trimmed at once; the rest are squeezed out, in order, when
	// there are compactMin of them and they outnumber the live flows.
	ordered   []*Flow
	finishAt  []float64 // finishAt[i] == ordered[i].finish, +Inf at a hole
	live      int       // active flows: len(ordered) less the holes
	onLink    []int     // active flow count per link
	share     []float64 // share[l] == linkBandwidth(l)/onLink[l], refreshed when either changes
	linkFlows [][]*Flow // active flows crossing each link, in no particular order
	nextID    int
	pool      []*Flow // recycled Flow structs with prebuilt closures

	// The one pending completion event: next's finish, the earliest among
	// running flows. Zero when no flow is running. next is kept up to date
	// as finish times change; rescan marks it unknown (next's own finish
	// rose, or next left), and the next reflow finds it from the block
	// minima. blockMin[b] is the position of the earliest finish among
	// finishAt's positions [b·blockSize, (b+1)·blockSize), ties to the
	// lower position; -1 marks it unknown (its holder's finish rose, or
	// the holder left) until a rescan recomputes it.
	ev         desim.Event
	next       *Flow
	rescan     bool
	blockMin   []int
	completeFn func()

	// Reflow scratch state, reused across calls so the per-change-point
	// hot path allocates nothing.
	epoch     uint64       // current reflow epoch (bumping it clears all flow marks)
	changed   []linkChange // the change point's links that carry other flows
	lsBuf     []linkState  // maxMin per-link progressive-filling state
	frozenBuf []bool       // maxMin frozen marks, indexed like ordered

	// Accounting.
	bytesMoved float64      // bytes delivered by completed flows
	transfers  int          // completed transfers
	linkBusy   []float64    // closed busy intervals per link, summed
	busySince  []desim.Time // start of the open busy interval; -1 while the link is idle
	linkBytes  []float64    // bytes moved per link by flows no longer active
}

const (
	blockShift = 6
	blockSize  = 1 << blockShift // finishAt positions per block minimum
	compactMin = 64              // fewer holes than this are never compacted
)

// linkChange records a link a change point touched, with the equal share
// its flows were rated against before the change.
type linkChange struct {
	link topology.LinkID
	old  float64
}

// linkState is per-link progressive-filling bookkeeping for maxMin.
type linkState struct {
	cap   float64 // capacity not yet claimed by frozen flows
	count int     // unfrozen flows crossing the link
}

// consume books a newly frozen flow's share out of the link: the residual
// capacity drops (clamped at zero against float drift accumulated over
// filling rounds) and so does the unfrozen-flow count.
func (s *linkState) consume(rate float64) {
	s.cap -= rate
	if s.cap < 0 {
		s.cap = 0
	}
	s.count--
}

// New creates a network simulator bound to an engine and topology.
func New(eng *desim.Engine, topo *topology.Topology, policy SharingPolicy) *Network {
	n := &Network{
		eng:       eng,
		topo:      topo,
		policy:    policy,
		onLink:    make([]int, topo.NumLinks()),
		share:     make([]float64, topo.NumLinks()),
		linkFlows: make([][]*Flow, topo.NumLinks()),

		bwOverride: make([]float64, topo.NumLinks()),
		linkBusy:   make([]float64, topo.NumLinks()),
		busySince:  make([]desim.Time, topo.NumLinks()),
		linkBytes:  make([]float64, topo.NumLinks()),
	}
	for i := range n.bwOverride {
		n.bwOverride[i] = -1
		n.busySince[i] = -1
	}
	n.completeFn = func() { n.complete(n.next) }
	return n
}

// SetLatencyPerHop sets the fixed startup delay charged per link crossed
// before a transfer begins moving bytes. Applies to transfers started
// after the call.
func (n *Network) SetLatencyPerHop(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		panic(fmt.Sprintf("netsim: invalid latency %v", seconds))
	}
	n.latencyPerHop = seconds
}

// OverrideActive reports whether a dynamic bandwidth override (degradation,
// outage, or scheduled Degradation window) is currently in force on the
// link. The fault injector uses this to avoid stacking faults on a link
// that is already impaired.
func (n *Network) OverrideActive(l topology.LinkID) bool { return n.bwOverride[l] >= 0 }

// linkBandwidth returns the effective bandwidth of a link, honoring any
// dynamic override.
func (n *Network) linkBandwidth(l topology.LinkID) float64 {
	if o := n.bwOverride[l]; o >= 0 {
		return o
	}
	return n.topo.Link(l).Bandwidth
}

// updateShare refreshes the cached equal share of link l after its
// bandwidth or occupancy changed. The expression is the one reflow used to
// evaluate per hop, so the cached value is bit-identical to it.
func (n *Network) updateShare(l topology.LinkID) {
	n.share[l] = n.linkBandwidth(l) / float64(n.onLink[l])
}

// SetLinkBandwidth dynamically changes one link's bandwidth (degradation
// or repair), immediately re-sharing all in-flight transfers. A bandwidth
// of 0 stalls flows crossing the link until it recovers; negative restores
// the nominal value.
func (n *Network) SetLinkBandwidth(l topology.LinkID, bytesPerSec float64) {
	if math.IsNaN(bytesPerSec) {
		panic("netsim: NaN bandwidth")
	}
	if bytesPerSec < 0 {
		n.bwOverride[l] = -1
	} else {
		n.bwOverride[l] = bytesPerSec
	}
	n.changed = n.changed[:0]
	if n.onLink[l] > 0 {
		n.changed = append(n.changed, linkChange{l, n.share[l]})
	}
	n.updateShare(l)
	n.reflow(nil)
}

// Transfer starts moving size bytes from src to dst and calls done when the
// last byte arrives. A zero-hop transfer (src == dst) or zero-size transfer
// completes via an immediately scheduled event, preserving event ordering.
// It returns the flow handle, which may be passed to Cancel.
func (n *Network) Transfer(src, dst topology.SiteID, size float64, done func(*Flow)) *Flow {
	if size < 0 || math.IsNaN(size) {
		panic(fmt.Sprintf("netsim: Transfer with invalid size %v", size))
	}
	f := n.newFlow()
	f.ID = n.nextID
	f.Src, f.Dst = src, dst
	f.Size = size
	f.remaining = size
	f.rate = 0
	f.path = n.topo.AppendRoute(f.path[:0], src, dst)
	f.done = done
	f.started = n.eng.Now()
	n.nextID++
	if len(f.path) == 0 || size == 0 {
		// Local or empty: delivered "instantly" but still via the event
		// queue so callers observe a consistent ordering.
		f.ev = n.eng.Schedule(0, f.localFn)
		return f
	}
	if n.latencyPerHop > 0 {
		// Startup latency: the flow consumes no bandwidth until the path
		// is established.
		f.ev = n.eng.Schedule(n.latencyPerHop*float64(len(f.path)), f.activateFn)
		return f
	}
	n.activate(f)
	return f
}

// newFlow pops a recycled Flow or builds a fresh one with its scheduling
// closures bound. The closures capture the struct, not a transfer, so
// they survive reuse.
func (n *Network) newFlow() *Flow {
	if len(n.pool) > 0 {
		f := n.pool[len(n.pool)-1]
		n.pool = n.pool[:len(n.pool)-1]
		f.pooled = false
		f.canceled = false
		return f
	}
	f := &Flow{}
	f.path, f.hopPos = f.routeBuf[:0], f.hopBuf[:0]
	f.localFn = func() { n.finishLocal(f) }
	f.activateFn = func() { n.activate(f) }
	return f
}

// release returns a finished or cancelled flow to the free list. Any
// handle the caller still holds is dead from here on.
func (n *Network) release(f *Flow) {
	if f.pooled {
		panic("netsim: flow released twice")
	}
	f.pooled = true
	f.done = nil
	f.path = f.path[:0]
	n.pool = append(n.pool, f)
}

// activate admits a flow to the bandwidth-sharing pool.
func (n *Network) activate(f *Flow) {
	if f.canceled {
		return
	}
	now := n.eng.Now()
	f.ev = desim.Event{} // any startup-latency event has fired by now
	f.anchor, f.finish = now, math.Inf(1)
	f.active = true
	f.ord = len(n.ordered)
	if f.ord%blockSize == 0 {
		// A new block; an existing one keeps its minimum, which is no
		// later than f's +Inf and sits at a lower position.
		n.blockMin = append(n.blockMin, f.ord)
	}
	n.ordered = append(n.ordered, f)
	n.finishAt = append(n.finishAt, f.finish)
	n.live++
	f.hopPos = f.hopPos[:0]
	n.changed = n.changed[:0]
	for _, l := range f.path {
		if n.onLink[l] == 0 {
			n.busySince[l] = now
		} else {
			n.changed = append(n.changed, linkChange{l, n.share[l]})
		}
		n.onLink[l]++
		n.updateShare(l)
		f.hopPos = append(f.hopPos, int32(len(n.linkFlows[l])))
		n.linkFlows[l] = append(n.linkFlows[l], f)
	}
	n.reflow(f)
}

// Cancel aborts an in-flight transfer; its done callback never fires.
// Bytes already moved remain accounted as link traffic. The flow struct
// is recycled: the handle must not be used (or Cancelled again) after
// this returns.
func (n *Network) Cancel(f *Flow) {
	if f == nil || f.canceled {
		return
	}
	f.canceled = true
	pending := !f.ev.IsZero()
	n.eng.Cancel(f.ev)
	f.ev = desim.Event{}
	if !f.active {
		if pending {
			// Cancelled before activation (startup latency) or delivery
			// (local transfer): the scheduled event will never fire, so
			// recycle here.
			n.release(f)
		}
		return
	}
	f.remaining = f.remainingAt(n.eng.Now())
	n.remove(f)
	n.reflow(nil)
	n.release(f)
}

// ActiveFlows returns the number of in-flight (non-local) transfers.
func (n *Network) ActiveFlows() int { return n.live }

// eachFlow calls fn for every active flow in admission order, skipping
// holes, so that sums over the flows keep one float order.
func (n *Network) eachFlow(fn func(*Flow)) {
	for _, f := range n.ordered {
		if f != nil {
			fn(f)
		}
	}
}

// BytesMoved returns total bytes delivered by completed transfers.
func (n *Network) BytesMoved() float64 { return n.bytesMoved }

// CompletedTransfers returns the number of finished transfers (including
// zero-hop local ones).
func (n *Network) CompletedTransfers() int { return n.transfers }

// LinkUtilization returns, for every link, the fraction of [0, now] during
// which at least one flow crossed it.
func (n *Network) LinkUtilization() []float64 {
	out := make([]float64, len(n.linkBusy))
	now := n.eng.Now()
	if now <= 0 {
		return out
	}
	for l, b := range n.linkBusy {
		if n.onLink[l] > 0 {
			b += now - n.busySince[l]
		}
		out[l] = b / now
	}
	return out
}

// LinkBytes returns the bytes carried per link so far: everything moved
// by finished and cancelled flows plus, for flows still in flight, what
// they have moved up to now.
func (n *Network) LinkBytes() []float64 {
	now := n.eng.Now()
	out := make([]float64, len(n.linkBytes))
	copy(out, n.linkBytes)
	n.eachFlow(func(f *Flow) {
		moved := f.Size - f.remainingAt(now)
		for _, l := range f.path {
			out[l] += moved
		}
	})
	return out
}

// EffectiveBandwidth returns the link's current capacity in bytes/sec,
// honoring any fault override (the exported face of linkBandwidth, for
// monitoring and invariant checks).
func (n *Network) EffectiveBandwidth(l topology.LinkID) float64 {
	return n.linkBandwidth(l)
}

// EffectiveBandwidths returns every link's current capacity in bytes/sec
// (EffectiveBandwidth in bulk) — one telemetry sample for trend trackers.
func (n *Network) EffectiveBandwidths() []float64 {
	out := make([]float64, n.topo.NumLinks())
	for i := range out {
		out[i] = n.linkBandwidth(topology.LinkID(i))
	}
	return out
}

// LinkLoads returns, per link, the sum of the current rates of the flows
// crossing it. With correct flow control this never exceeds
// EffectiveBandwidth for any link — the watchdog's link-capacity
// invariant.
func (n *Network) LinkLoads() []float64 {
	out := make([]float64, n.topo.NumLinks())
	n.eachFlow(func(f *Flow) {
		for _, l := range f.path {
			out[l] += f.rate
		}
	})
	return out
}

// LinkBacklogBytes returns, per link, the bytes still to be delivered by
// the flows crossing it (each flow's remaining bytes counted on every
// link of its route), projected to the current virtual time.
func (n *Network) LinkBacklogBytes() []float64 {
	now := n.eng.Now()
	out := make([]float64, n.topo.NumLinks())
	n.eachFlow(func(f *Flow) {
		rem := f.remainingAt(now)
		for _, l := range f.path {
			out[l] += rem
		}
	})
	return out
}

// CongestionOn reports the current number of active flows crossing the
// route between two sites at its most loaded link. The adaptive scheduler
// extension uses this as its congestion signal.
func (n *Network) CongestionOn(src, dst topology.SiteID) int {
	var buf [8]topology.LinkID
	maxFlows := 0
	for _, l := range n.topo.AppendRoute(buf[:0], src, dst) {
		if c := n.onLink[l]; c > maxFlows {
			maxFlows = c
		}
	}
	return maxFlows
}

// PredictTime estimates, under current conditions, the seconds needed to
// move size bytes between the sites (∞-free: returns size/rate with at
// least one competing slot assumed for the new flow itself).
func (n *Network) PredictTime(src, dst topology.SiteID, size float64) float64 {
	var buf [8]topology.LinkID
	path := n.topo.AppendRoute(buf[:0], src, dst)
	if len(path) == 0 {
		return 0
	}
	rate := math.Inf(1)
	for _, l := range path {
		share := n.linkBandwidth(l) / float64(n.onLink[l]+1)
		if share < rate {
			rate = share
		}
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return size/rate + n.latencyPerHop*float64(len(path))
}

// remainingAt projects the flow's remaining bytes from its anchor to now
// at its current rate.
func (f *Flow) remainingAt(now desim.Time) float64 {
	dt := now - f.anchor
	if dt < 0 {
		panic("netsim: time went backwards")
	}
	if dt == 0 {
		return f.remaining
	}
	rem := f.remaining - f.rate*dt
	if rem < 1e-9 {
		rem = 0
	}
	return rem
}

// setRate gives f a new rate from now on. A flow whose rate is unchanged
// keeps its anchor, so its remaining bytes and finish time are not
// touched; otherwise it is re-anchored at now.
func (n *Network) setRate(f *Flow, rate float64, now desim.Time) {
	if rate != f.rate {
		n.reanchor(f, rate, now)
	}
}

// pathRate returns f's equal-share rate: the least cached share on its
// route.
func (n *Network) pathRate(f *Flow) float64 {
	rate := math.Inf(1)
	for _, l := range f.path {
		if share := n.share[l]; share < rate {
			rate = share
		}
	}
	return rate
}

// reanchor advances f's remaining bytes to now at its old rate and
// derives its finish time at the new one, keeping next and f's block
// minimum current by one rule: a flow that now finishes first (ties to
// the lower position) takes the minimum, and the holder finishing later
// than before leaves the minimum unknown.
func (n *Network) reanchor(f *Flow, rate float64, now desim.Time) {
	rem := f.remainingAt(now)
	finish := math.Inf(1)
	if rate > 0 {
		finish = now + rem/rate
	}
	old := f.finish
	f.remaining, f.anchor, f.rate, f.finish = rem, now, rate, finish
	p := f.ord
	n.finishAt[p] = finish
	if b := p >> blockShift; n.blockMin[b] >= 0 {
		switch h := n.blockMin[b]; {
		case h == p:
			if finish > old {
				n.blockMin[b] = -1
			}
		case finish < n.finishAt[h] || finish == n.finishAt[h] && p < h:
			n.blockMin[b] = p
		}
	}
	switch {
	case n.rescan:
	case f == n.next:
		n.rescan = finish > old
	case finish == math.Inf(1):
	case n.next == nil || finish < n.next.finish || finish == n.next.finish && p < n.next.ord:
		n.next = f
	}
}

// scanNext returns the running flow with the earliest finish, ties to the
// earliest admitted, or nil when no flow is running. It recomputes the
// unknown block minima and compares the blocks' minima, so it costs
// blockSize per unknown block plus one per block.
func (n *Network) scanNext() *Flow {
	next, best := -1, math.Inf(1)
	for b, h := range n.blockMin {
		if h < 0 {
			h = n.blockScan(b)
			n.blockMin[b] = h
		}
		if at := n.finishAt[h]; at < best {
			next, best = h, at
		}
	}
	if next < 0 {
		return nil
	}
	return n.ordered[next]
}

// blockScan returns the position of block b's earliest finish, ties to
// the lower position (the block's first position when all are +Inf).
func (n *Network) blockScan(b int) int {
	lo := b << blockShift
	block := n.finishAt[lo:min(lo+blockSize, len(n.finishAt))]
	h, best := 0, block[0]
	for i, at := range block {
		if at < best {
			h, best = i, at
		}
	}
	return lo + h
}

// reflow recomputes flow rates after a change point — admitted's
// admission (nil for any other change), a finished or cancelled flow's
// removal, or a link whose bandwidth was overridden — re-anchors the
// flows whose rate changed, and moves the network's completion event to
// the earliest finish. The caller has recorded in n.changed each link
// the change touched that carries other flows, with its old share.
//
// Contract (the golden-hash and reference tests enforce it): the outcome
// equals a kernel that recomputes every rate at every change point,
// re-anchors exactly the flows whose rate changed, and gives every running
// flow its own completion event at anchor+remaining/rate, rescheduled
// afresh in admission order at every change point. Those per-flow events
// would carry consecutive sequence numbers in admission order, so the
// first to fire is the minimum finish time with ties to the earliest
// admitted, and it sorts against every other event where one event
// scheduled now does. The single event, rescheduled to that flow's
// finish, fires the same completion at the same instant in the same
// order.
func (n *Network) reflow(admitted *Flow) {
	now := n.eng.Now()
	switch n.policy {
	case EqualShare:
		n.equalShare(admitted, now)
	case MaxMinFair:
		n.maxMin(now)
	default:
		panic("netsim: unknown sharing policy")
	}
	if n.rescan {
		n.next, n.rescan = n.scanNext(), false
	}
	if n.next == nil { // no flow running, or all stalled
		n.eng.Cancel(n.ev)
		n.ev = desim.Event{}
		return
	}
	if n.ev.IsZero() {
		n.ev = n.eng.At(n.next.finish, n.completeFn)
	} else {
		n.eng.RescheduleAt(n.ev, n.next.finish)
	}
}

// equalShare re-rates the flows the links in n.changed can re-rate. A
// flow's rate is the least share on its route, and min is exact, so a
// flow none of whose links changed keeps a bit-identical rate, and for
// the others one rule per link gives the full recompute bit for bit:
//
//   - Share fell (admission, or a bandwidth drop): the new rate is the
//     lower of the old rate and the changed shares. The links are visited
//     in ascending new share, so a flow's first visit is at its lowest
//     changed share, and it is re-anchored there if that is below its
//     rate. The admitted flow, not yet rated, walks its route first.
//   - Share rose (removal, or a repair): only a flow whose rate was that
//     link's old share can speed up, and only such a flow walks its
//     route. A flow rated below it is held by another link.
//   - Share equal: no flow on the link changes.
//
// One change point moves its links' shares one way, so the rules never
// mix.
func (n *Network) equalShare(admitted *Flow, now desim.Time) {
	n.epoch++
	epoch := n.epoch
	if admitted != nil {
		admitted.mark = epoch
		n.setRate(admitted, n.pathRate(admitted), now)
	}
	chg := n.changed
	for i := 1; i < len(chg); i++ {
		for j := i; j > 0 && n.share[chg[j].link] < n.share[chg[j-1].link]; j-- {
			chg[j], chg[j-1] = chg[j-1], chg[j]
		}
	}
	for _, c := range chg {
		share := n.share[c.link]
		switch {
		case share < c.old:
			for _, f := range n.linkFlows[c.link] {
				if f.mark != epoch {
					f.mark = epoch
					if share < f.rate {
						n.reanchor(f, share, now)
					}
				}
			}
		case share > c.old:
			for _, f := range n.linkFlows[c.link] {
				if f.mark != epoch && f.rate == c.old {
					f.mark = epoch
					n.setRate(f, n.pathRate(f), now)
				}
			}
		}
	}
}

// maxMin runs progressive filling: repeatedly saturate the link with the
// smallest fair share among unfrozen flows, freeze its flows at that rate,
// and redistribute. A flow's rate is final once frozen, so it is set (and
// the flow re-anchored if the rate changed) right there. The per-link
// index supplies each bottleneck's flows; the order they freeze in within
// a round does not matter, since each books the same rate out of its
// links.
func (n *Network) maxMin(now desim.Time) {
	numLinks := n.topo.NumLinks()
	if cap(n.lsBuf) < numLinks {
		n.lsBuf = make([]linkState, numLinks)
	}
	ls := n.lsBuf[:numLinks]
	for i := range ls {
		ls[i] = linkState{cap: n.linkBandwidth(topology.LinkID(i)), count: n.onLink[i]}
	}
	if cap(n.frozenBuf) < len(n.ordered) {
		n.frozenBuf = make([]bool, cap(n.ordered))
	}
	frozen := n.frozenBuf[:len(n.ordered)]
	clear(frozen)
	// Filling re-rates nearly every flow, so the block minima are left
	// unknown for the next rescan rather than kept current flow by flow.
	for b := range n.blockMin {
		n.blockMin[b] = -1
	}
	remaining := n.live
	for remaining > 0 {
		// Find bottleneck link: min cap/count over links with count > 0.
		bottleneck := -1
		best := math.Inf(1)
		for i := range ls {
			if ls[i].count > 0 {
				if share := ls[i].cap / float64(ls[i].count); share < best {
					best = share
					bottleneck = i
				}
			}
		}
		if bottleneck < 0 {
			break
		}
		// Freeze all unfrozen flows crossing the bottleneck at `best`.
		for _, f := range n.linkFlows[bottleneck] {
			if frozen[f.ord] {
				continue
			}
			n.setRate(f, best, now)
			frozen[f.ord] = true
			remaining--
			for _, l := range f.path {
				ls[l].consume(best)
			}
		}
	}
	if remaining > 0 { // only reachable with a NaN or infinite share
		n.eachFlow(func(f *Flow) {
			if !frozen[f.ord] {
				n.setRate(f, 0, now)
			}
		})
	}
}

// complete fires when the network's completion event triggers; f is the
// flow it was anchored to.
func (n *Network) complete(f *Flow) {
	n.ev = desim.Event{}
	f.remaining = 0
	n.remove(f)
	n.reflow(nil)
	n.finish(f)
	n.release(f)
}

// finishLocal delivers a zero-hop or zero-size transfer when its
// scheduled event fires, then recycles the flow.
func (n *Network) finishLocal(f *Flow) {
	f.ev = desim.Event{}
	n.finish(f)
	n.release(f)
}

// remove takes an active flow out of the sharing pool, records in
// n.changed the links still carrying other flows, and credits the bytes
// it moved to every link on its path; f.remaining must be current.
func (n *Network) remove(f *Flow) {
	if !f.active {
		return
	}
	f.active = false
	if f == n.next {
		n.next, n.rescan = nil, true
	}
	i := f.ord
	if i >= len(n.ordered) || n.ordered[i] != f {
		panic("netsim: flow ordinal out of sync")
	}
	n.ordered[i], n.finishAt[i] = nil, math.Inf(1)
	n.live--
	if b := i >> blockShift; n.blockMin[b] == i {
		n.blockMin[b] = -1
	}
	n.trim()
	now := n.eng.Now()
	n.changed = n.changed[:0]
	for k, l := range f.path {
		n.linkBytes[l] += f.Size - f.remaining
		old := n.share[l]
		n.onLink[l]--
		n.updateShare(l)
		switch {
		case n.onLink[l] < 0:
			panic("netsim: negative link occupancy")
		case n.onLink[l] == 0:
			n.linkBusy[l] += now - n.busySince[l]
			n.busySince[l] = -1
		default:
			n.changed = append(n.changed, linkChange{l, old})
		}
		n.unlink(l, int(f.hopPos[k]))
	}
}

// trim drops trailing holes from ordered, and the blocks they emptied,
// then compacts when the holes left reach compactMin and outnumber the
// live flows. A clean block cut short still holds its minimum: a holder
// among the trimmed holes would be at +Inf, so the block's first
// position, and that block went whole.
func (n *Network) trim() {
	end := len(n.ordered)
	for end > 0 && n.ordered[end-1] == nil {
		end--
	}
	n.ordered, n.finishAt = n.ordered[:end], n.finishAt[:end]
	n.blockMin = n.blockMin[:(end+blockSize-1)>>blockShift]
	if holes := end - n.live; holes >= compactMin && holes > n.live {
		n.compact()
	}
}

// compact squeezes the holes out of ordered, keeping admission order, and
// renumbers the flows' positions. Every block minimum becomes unknown;
// the next rescan recomputes them.
func (n *Network) compact() {
	j := 0
	for _, f := range n.ordered {
		if f != nil {
			f.ord = j
			n.ordered[j], n.finishAt[j] = f, f.finish
			j++
		}
	}
	clear(n.ordered[j:])
	n.ordered, n.finishAt = n.ordered[:j], n.finishAt[:j]
	n.blockMin = n.blockMin[:(j+blockSize-1)>>blockShift]
	for b := range n.blockMin {
		n.blockMin[b] = -1
	}
}

// unlink swap-removes the flow at index p of linkFlows[l], repointing the
// flow moved into the hole at its new position.
func (n *Network) unlink(l topology.LinkID, p int) {
	fl := n.linkFlows[l]
	last := len(fl) - 1
	if moved := fl[last]; p != last {
		fl[p] = moved
		for k, ml := range moved.path {
			if ml == l {
				moved.hopPos[k] = int32(p)
				break
			}
		}
	}
	fl[last] = nil
	n.linkFlows[l] = fl[:last]
}

func (n *Network) finish(f *Flow) {
	if f.canceled {
		return
	}
	n.bytesMoved += f.Size
	n.transfers++
	if f.done != nil {
		f.done(f)
	}
}
