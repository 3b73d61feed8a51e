package netsim

import (
	"math"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// refNet is the reference kernel Network must match: every running flow
// owns a completion event, and every change point recomputes every rate
// from scratch, then re-anchors every flow's event in admission order.
// settle accrues per-link bytes as Σ rate·dt along each route.
type refNet struct {
	eng           *desim.Engine
	topo          *topology.Topology
	policy        SharingPolicy
	latencyPerHop float64
	bwOverride    []float64
	ordered       []*refFlow
	onLink        []int
	linkBusy      []float64
	linkBytes     []float64
	lastAccounts  desim.Time
	bytesMoved    float64
	transfers     int
}

type refFlow struct {
	size, remaining, rate float64
	path                  []topology.LinkID
	done                  func()
	ev                    desim.Event // completion, startup-latency or local-delivery event
	active, canceled      bool
}

func newRefNet(eng *desim.Engine, topo *topology.Topology, policy SharingPolicy) *refNet {
	r := &refNet{
		eng: eng, topo: topo, policy: policy,
		bwOverride: make([]float64, topo.NumLinks()),
		onLink:     make([]int, topo.NumLinks()),
		linkBusy:   make([]float64, topo.NumLinks()),
		linkBytes:  make([]float64, topo.NumLinks()),
	}
	for i := range r.bwOverride {
		r.bwOverride[i] = -1
	}
	return r
}

func (r *refNet) bandwidth(l topology.LinkID) float64 {
	if o := r.bwOverride[l]; o >= 0 {
		return o
	}
	return r.topo.Link(l).Bandwidth
}

func (r *refNet) transfer(src, dst topology.SiteID, size float64, done func()) *refFlow {
	f := &refFlow{size: size, remaining: size, path: r.topo.Route(src, dst), done: done}
	switch {
	case len(f.path) == 0 || size == 0:
		f.ev = r.eng.Schedule(0, func() { r.finish(f) })
	case r.latencyPerHop > 0:
		f.ev = r.eng.Schedule(r.latencyPerHop*float64(len(f.path)), func() { r.activate(f) })
	default:
		r.activate(f)
	}
	return f
}

func (r *refNet) activate(f *refFlow) {
	if f.canceled {
		return
	}
	r.settle()
	f.ev = desim.Event{}
	f.active = true
	r.ordered = append(r.ordered, f)
	for _, l := range f.path {
		r.onLink[l]++
	}
	r.reflow()
}

func (r *refNet) cancel(f *refFlow) {
	if f.canceled {
		return
	}
	f.canceled = true
	r.eng.Cancel(f.ev)
	f.ev = desim.Event{}
	if !f.active {
		return
	}
	r.settle()
	r.remove(f)
	r.reflow()
}

func (r *refNet) setBandwidth(l topology.LinkID, bw float64) {
	r.settle()
	if bw < 0 {
		bw = -1
	}
	r.bwOverride[l] = bw
	r.reflow()
}

func (r *refNet) settle() {
	now := r.eng.Now()
	if dt := now - r.lastAccounts; dt > 0 {
		for _, f := range r.ordered {
			f.remaining -= f.rate * dt
			if f.remaining < 1e-9 {
				f.remaining = 0
			}
			for _, l := range f.path {
				r.linkBytes[l] += f.rate * dt
			}
		}
		for l, c := range r.onLink {
			if c > 0 {
				r.linkBusy[l] += dt
			}
		}
	}
	r.lastAccounts = now
}

func (r *refNet) reflow() {
	if r.policy == EqualShare {
		for _, f := range r.ordered {
			f.rate = math.Inf(1)
			for _, l := range f.path {
				f.rate = math.Min(f.rate, r.bandwidth(l)/float64(r.onLink[l]))
			}
		}
	} else {
		r.maxMin()
	}
	for _, f := range r.ordered {
		switch {
		case f.rate <= 0:
			r.eng.Cancel(f.ev)
			f.ev = desim.Event{}
		case f.ev.IsZero():
			f.ev = r.eng.Schedule(f.remaining/f.rate, func() { r.complete(f) })
		default:
			r.eng.Reschedule(f.ev, f.remaining/f.rate)
		}
	}
}

// maxMin is progressive filling: freeze the flows on the link with the
// smallest fair share, book their rate out of every link they cross, and
// repeat.
func (r *refNet) maxMin() {
	capLeft := make([]float64, r.topo.NumLinks())
	count := make([]int, r.topo.NumLinks())
	for l := range capLeft {
		capLeft[l] = r.bandwidth(topology.LinkID(l))
	}
	frozen := make([]bool, len(r.ordered))
	for _, f := range r.ordered {
		f.rate = 0
		for _, l := range f.path {
			count[l]++
		}
	}
	for {
		bottleneck, best := -1, math.Inf(1)
		for l := range capLeft {
			if count[l] > 0 && capLeft[l]/float64(count[l]) < best {
				bottleneck, best = l, capLeft[l]/float64(count[l])
			}
		}
		if bottleneck < 0 {
			return
		}
		for i, f := range r.ordered {
			if frozen[i] || !crosses(f.path, topology.LinkID(bottleneck)) {
				continue
			}
			f.rate, frozen[i] = best, true
			for _, l := range f.path {
				capLeft[l] = math.Max(capLeft[l]-best, 0)
				count[l]--
			}
		}
	}
}

func crosses(path []topology.LinkID, link topology.LinkID) bool {
	for _, l := range path {
		if l == link {
			return true
		}
	}
	return false
}

func (r *refNet) complete(f *refFlow) {
	r.settle()
	f.remaining = 0
	f.ev = desim.Event{}
	r.remove(f)
	r.reflow()
	r.finish(f)
}

func (r *refNet) remove(f *refFlow) {
	f.active = false
	for i, g := range r.ordered {
		if g == f {
			r.ordered = append(r.ordered[:i], r.ordered[i+1:]...)
			break
		}
	}
	for _, l := range f.path {
		r.onLink[l]--
	}
}

func (r *refNet) finish(f *refFlow) {
	if f.canceled {
		return
	}
	r.bytesMoved += f.size
	r.transfers++
	f.done()
}

// diffSide is one kernel under differential test, driven through the
// operations the simulator uses. Transfers are named by start index.
type diffSide interface {
	transfer(i int, src, dst topology.SiteID, size float64, done func())
	cancel(i int)
	setBandwidth(l topology.LinkID, bw float64)
	setLatency(s float64)
	// finishTimes lists the running flows' scheduled finish times in
	// admission order.
	finishTimes() []desim.Time
	summary() (bytesMoved float64, transfers int, util, linkBytes []float64)
}

type netSide struct {
	n     *Network
	flows map[int]*Flow // started, neither delivered nor cancelled
}

func (s *netSide) transfer(i int, src, dst topology.SiteID, size float64, done func()) {
	s.flows[i] = s.n.Transfer(src, dst, size, func(*Flow) { delete(s.flows, i); done() })
}

func (s *netSide) cancel(i int) {
	if f, ok := s.flows[i]; ok {
		delete(s.flows, i)
		s.n.Cancel(f)
	}
}

func (s *netSide) setBandwidth(l topology.LinkID, bw float64) { s.n.SetLinkBandwidth(l, bw) }
func (s *netSide) setLatency(sec float64)                     { s.n.SetLatencyPerHop(sec) }

func (s *netSide) finishTimes() []desim.Time {
	var out []desim.Time
	for _, f := range s.n.ordered {
		if f.rate > 0 {
			out = append(out, s.n.lastAccounts+f.remaining/f.rate)
		}
	}
	return out
}

func (s *netSide) summary() (float64, int, []float64, []float64) {
	return s.n.BytesMoved(), s.n.CompletedTransfers(), s.n.LinkUtilization(), s.n.LinkBytes()
}

type refSide struct {
	r     *refNet
	flows map[int]*refFlow
}

func (s *refSide) transfer(i int, src, dst topology.SiteID, size float64, done func()) {
	s.flows[i] = s.r.transfer(src, dst, size, func() { delete(s.flows, i); done() })
}

func (s *refSide) cancel(i int) {
	if f, ok := s.flows[i]; ok {
		delete(s.flows, i)
		s.r.cancel(f)
	}
}

func (s *refSide) setBandwidth(l topology.LinkID, bw float64) { s.r.setBandwidth(l, bw) }
func (s *refSide) setLatency(sec float64)                     { s.r.latencyPerHop = sec }

func (s *refSide) finishTimes() []desim.Time {
	var out []desim.Time
	for _, f := range s.r.ordered {
		if f.rate > 0 {
			out = append(out, f.ev.At())
		}
	}
	return out
}

func (s *refSide) summary() (float64, int, []float64, []float64) {
	s.r.settle()
	util := make([]float64, len(s.r.linkBusy))
	for l, b := range s.r.linkBusy {
		util[l] = b / s.r.eng.Now()
	}
	return s.r.bytesMoved, s.r.transfers, util, s.r.linkBytes
}

// diffOp is one scripted operation; the arguments are raw draws that each
// side maps onto its own state, so both sides see the same operation.
type diffOp struct {
	at         desim.Time
	kind       int
	a, b, c, d int
	size       float64
}

// diffEvent is one observable outcome: a delivery ('D', transfer index)
// or a foreign engine event ('F', its ordinal), with the instant it ran.
type diffEvent struct {
	kind byte
	id   int
	at   desim.Time
}

// diffScript draws a random operation sequence. Times fall on a coarse
// grid and sizes mostly come from a few values, so operations, deliveries
// and foreign events keep landing on the same instants.
func diffScript(seed uint64, sites, links int) []diffOp {
	src := rng.New(seed)
	sizes := []float64{5e6, 10e6, 20e6, 40e6}
	var ops []diffOp
	at := 0.0
	for i := 0; i < 150; i++ {
		if src.Intn(3) == 0 {
			at += float64(src.Intn(4)) * 0.5
		}
		op := diffOp{at: at, kind: src.Intn(10),
			a: src.Intn(sites), b: src.Intn(sites), c: src.Intn(1 << 20), d: src.Intn(links)}
		op.size = sizes[src.Intn(len(sizes))]
		if src.Intn(4) == 0 {
			op.size = src.Range(1e5, 60e6)
		}
		ops = append(ops, op)
	}
	// Lift every override so stalled flows drain, except that odd seeds
	// then take link 0 down for good, stranding the flows crossing it.
	for l := 0; l < links; l++ {
		ops = append(ops, diffOp{at: at + 1, kind: 10, d: l})
	}
	if seed%2 == 1 {
		ops = append(ops, diffOp{at: at + 1, kind: 7, d: 0})
	}
	return ops
}

// runDiff drives one side through the script on a fresh engine and
// returns everything it observed.
func runDiff(ops []diffOp, sites int, eng *desim.Engine, side diffSide) (log []diffEvent, fired uint64) {
	started, foreign := 0, 0
	start := func(src, dst topology.SiteID, size float64) {
		i := started
		started++
		side.transfer(i, src, dst, size, func() { log = append(log, diffEvent{'D', i, eng.Now()}) })
	}
	for _, op := range ops {
		eng.At(op.at, func() {
			switch op.kind {
			case 0, 1, 2, 3:
				start(topology.SiteID(op.a), topology.SiteID(op.b), op.size)
			case 4: // a burst of equal transfers into one site, at one instant
				for k := 0; k < 4; k++ {
					start(topology.SiteID((op.a+k)%sites), topology.SiteID(op.b), op.size)
				}
			case 5, 6:
				if started > 0 {
					side.cancel(op.c % started)
				}
			case 7: // outage
				side.setBandwidth(topology.LinkID(op.d), 0)
			case 8: // degrade to a fraction of nominal
				side.setBandwidth(topology.LinkID(op.d), float64(1+op.c%4)*2e6)
			case 9:
				side.setLatency(float64(op.c%3) * 0.25)
			case 10:
				side.setBandwidth(topology.LinkID(op.d), -1)
			}
			// A foreign event at every predicted finish, some of which start
			// a transfer at that very instant.
			for _, t := range side.finishTimes() {
				k := foreign
				foreign++
				eng.At(t, func() {
					log = append(log, diffEvent{'F', k, eng.Now()})
					if k%16 == 0 {
						start(topology.SiteID(k%sites), topology.SiteID((k+1)%sites), 10e6)
					}
				})
			}
		})
	}
	eng.Run()
	return log, eng.Fired()
}

// TestNetworkMatchesPerFlowEventReference drives Network and the
// per-flow-event reference kernel through the same random transfers
// (with same-instant ties), cancels, outages, degradations, startup
// latency and foreign events at predicted finish times, and requires the
// same deliveries and foreign events in the same order at == instants,
// the same engine event count, and the same accounting.
func TestNetworkMatchesPerFlowEventReference(t *testing.T) {
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		for seed := uint64(1); seed <= 8; seed++ {
			topo := star(t, 6, 10e6)
			if seed%2 == 0 {
				topo = hier(t, 12, 3, 10e6)
			}
			sites, links := topo.NumSites(), topo.NumLinks()
			ops := diffScript(seed, sites, links)

			eng, refEng := desim.New(), desim.New()
			side := &netSide{New(eng, topo, policy), map[int]*Flow{}}
			ref := &refSide{newRefNet(refEng, topo, policy), map[int]*refFlow{}}
			got, gotFired := runDiff(ops, sites, eng, side)
			want, wantFired := runDiff(ops, sites, refEng, ref)

			name := policy.String()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d observed events, reference %d", name, seed, len(got), len(want))
			}
			ties, foreignAtDelivery := 0, 0
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: event %d = %+v, reference %+v", name, seed, i, got[i], want[i])
				}
				if i > 0 && got[i].at == got[i-1].at {
					if got[i].kind == 'D' && got[i-1].kind == 'D' {
						ties++
					} else if got[i].kind != got[i-1].kind {
						foreignAtDelivery++
					}
				}
			}
			if gotFired != wantFired {
				t.Fatalf("%s seed %d: engine fired %d events, reference %d", name, seed, gotFired, wantFired)
			}
			if ties == 0 || foreignAtDelivery == 0 {
				t.Fatalf("%s seed %d: script exercised %d delivery ties and %d foreign events at a delivery instant",
					name, seed, ties, foreignAtDelivery)
			}

			bytes, transfers, util, linkBytes := side.summary()
			wantBytes, wantTransfers, wantUtil, wantLinkBytes := ref.summary()
			if bytes != wantBytes || transfers != wantTransfers {
				t.Fatalf("%s seed %d: moved %v bytes in %d transfers, reference %v in %d",
					name, seed, bytes, transfers, wantBytes, wantTransfers)
			}
			for l := range util {
				if util[l] != wantUtil[l] {
					t.Fatalf("%s seed %d: link %d utilization %v, reference %v", name, seed, l, util[l], wantUtil[l])
				}
				// Per-link bytes are summed in a different order: Size − remaining
				// per flow instead of Σ rate·dt per change point.
				if math.Abs(linkBytes[l]-wantLinkBytes[l]) > 1e-6*wantLinkBytes[l]+1e-3 {
					t.Fatalf("%s seed %d: link %d carried %v bytes, reference %v",
						name, seed, l, linkBytes[l], wantLinkBytes[l])
				}
			}
		}
	}
}
