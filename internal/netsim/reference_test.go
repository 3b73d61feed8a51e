package netsim

import (
	"math"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// refNet is the reference kernel Network must match: every change point
// recomputes every rate from scratch and re-anchors each flow whose rate
// changed, and every running flow owns a completion event at
// anchor+remaining/rate, rescheduled in admission order at every change
// point. In eager mode it instead re-anchors every flow at every change
// point, which is the arithmetic Network used before anchors were lazy.
// Per-link bytes accrue at each re-anchor along the flow's route.
type refNet struct {
	eng           *desim.Engine
	topo          *topology.Topology
	policy        SharingPolicy
	eager         bool
	latencyPerHop float64
	bwOverride    []float64
	ordered       []*refFlow
	onLink        []int
	linkBusy      []float64
	busySince     []desim.Time
	linkBytes     []float64
	bytesMoved    float64
	transfers     int
}

type refFlow struct {
	size, remaining, rate float64
	anchor                desim.Time
	path                  []topology.LinkID
	done                  func()
	ev                    desim.Event // completion, startup-latency or local-delivery event
	active, canceled      bool
}

func newRefNet(eng *desim.Engine, topo *topology.Topology, policy SharingPolicy, eager bool) *refNet {
	r := &refNet{
		eng: eng, topo: topo, policy: policy, eager: eager,
		bwOverride: make([]float64, topo.NumLinks()),
		onLink:     make([]int, topo.NumLinks()),
		linkBusy:   make([]float64, topo.NumLinks()),
		busySince:  make([]desim.Time, topo.NumLinks()),
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
	f := &refFlow{size: size, remaining: size, path: r.topo.AppendRoute(nil, src, dst), done: done}
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
	f.ev = desim.Event{}
	f.active = true
	f.anchor = r.eng.Now()
	r.ordered = append(r.ordered, f)
	for _, l := range f.path {
		if r.onLink[l] == 0 {
			r.busySince[l] = r.eng.Now()
		}
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
	r.reanchor(f)
	r.remove(f)
	r.reflow()
}

func (r *refNet) setBandwidth(l topology.LinkID, bw float64) {
	if bw < 0 {
		bw = -1
	}
	r.bwOverride[l] = bw
	r.reflow()
}

// remainingAt projects f's remaining bytes from its anchor to now.
func (f *refFlow) remainingAt(now desim.Time) float64 {
	if now == f.anchor {
		return f.remaining
	}
	if rem := f.remaining - f.rate*(now-f.anchor); rem >= 1e-9 {
		return rem
	}
	return 0
}

// reanchor advances f to now at its current rate, crediting the bytes
// moved since its anchor to every link it crosses.
func (r *refNet) reanchor(f *refFlow) {
	now := r.eng.Now()
	rem := f.remainingAt(now)
	for _, l := range f.path {
		r.linkBytes[l] += f.remaining - rem
	}
	f.remaining, f.anchor = rem, now
}

func (r *refNet) reflow() {
	var rates []float64
	if r.policy == EqualShare {
		for _, f := range r.ordered {
			rate := math.Inf(1)
			for _, l := range f.path {
				rate = math.Min(rate, r.bandwidth(l)/float64(r.onLink[l]))
			}
			rates = append(rates, rate)
		}
	} else {
		rates = r.maxMin()
	}
	for i, f := range r.ordered {
		if r.eager || rates[i] != f.rate {
			r.reanchor(f)
			f.rate = rates[i]
		}
		switch {
		case f.rate <= 0:
			r.eng.Cancel(f.ev)
			f.ev = desim.Event{}
		case f.ev.IsZero():
			f.ev = r.eng.At(f.anchor+f.remaining/f.rate, func() { r.complete(f) })
		default:
			r.eng.RescheduleAt(f.ev, f.anchor+f.remaining/f.rate)
		}
	}
}

// maxMin is progressive filling: freeze the flows on the link with the
// smallest fair share, book their rate out of every link they cross, and
// repeat. It returns the rates in admission order.
func (r *refNet) maxMin() []float64 {
	capLeft := make([]float64, r.topo.NumLinks())
	count := make([]int, r.topo.NumLinks())
	for l := range capLeft {
		capLeft[l] = r.bandwidth(topology.LinkID(l))
	}
	rates := make([]float64, len(r.ordered))
	frozen := make([]bool, len(r.ordered))
	for _, f := range r.ordered {
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
			return rates
		}
		for i, f := range r.ordered {
			if frozen[i] || !crosses(f.path, topology.LinkID(bottleneck)) {
				continue
			}
			rates[i], frozen[i] = best, true
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
	r.reanchor(f)
	for _, l := range f.path {
		r.linkBytes[l] += f.remaining
	}
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
		if r.onLink[l] == 0 {
			r.linkBusy[l] += r.eng.Now() - r.busySince[l]
		}
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

// netSide drives a Network and checks its invariants after every
// operation and delivery.
type netSide struct {
	t     testing.TB
	n     *Network
	flows map[int]*Flow // started, neither delivered nor cancelled
}

func (s *netSide) transfer(i int, src, dst topology.SiteID, size float64, done func()) {
	s.flows[i] = s.n.Transfer(src, dst, size, func(*Flow) {
		checkInvariants(s.t, s.n)
		delete(s.flows, i)
		done()
	})
	checkInvariants(s.t, s.n)
}

func (s *netSide) cancel(i int) {
	if f, ok := s.flows[i]; ok {
		delete(s.flows, i)
		s.n.Cancel(f)
		checkInvariants(s.t, s.n)
	}
}

func (s *netSide) setBandwidth(l topology.LinkID, bw float64) {
	s.n.SetLinkBandwidth(l, bw)
	checkInvariants(s.t, s.n)
}

func (s *netSide) setLatency(sec float64) { s.n.SetLatencyPerHop(sec) }

func (s *netSide) finishTimes() []desim.Time {
	var out []desim.Time
	s.n.eachFlow(func(f *Flow) {
		if f.rate > 0 {
			out = append(out, f.finish)
		}
	})
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
	now := s.r.eng.Now()
	util := make([]float64, len(s.r.linkBusy))
	for l, b := range s.r.linkBusy {
		if s.r.onLink[l] > 0 {
			b += now - s.r.busySince[l]
		}
		util[l] = b / now
	}
	linkBytes := append([]float64(nil), s.r.linkBytes...)
	for _, f := range s.r.ordered {
		for _, l := range f.path {
			linkBytes[l] += f.remaining - f.remainingAt(now)
		}
	}
	return s.r.bytesMoved, s.r.transfers, util, linkBytes
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

// diffScript draws a random operation sequence. With ties, times fall on
// a coarse grid and sizes mostly come from a few values, so operations,
// deliveries and foreign events keep landing on the same instants.
// Without, times and sizes are continuous draws, so two events share an
// instant only when the same arithmetic produced both.
func diffScript(seed uint64, sites, links int, ties bool) []diffOp {
	src := rng.New(seed)
	sizes := []float64{5e6, 10e6, 20e6, 40e6}
	var ops []diffOp
	at := 0.0
	for i := 0; i < 150; i++ {
		if src.Intn(3) == 0 {
			if ties {
				at += float64(src.Intn(4)) * 0.5
			} else {
				at += src.Range(0, 1.5)
			}
		}
		op := diffOp{at: at, kind: src.Intn(10),
			a: src.Intn(sites), b: src.Intn(sites), c: src.Intn(1 << 20), d: src.Intn(links)}
		op.size = sizes[src.Intn(len(sizes))]
		if src.Intn(4) == 0 || !ties {
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
// returns everything it observed. With ties, some foreign events start a
// transfer at the predicted finish they fire at.
func runDiff(ops []diffOp, sites int, ties bool, eng *desim.Engine, side diffSide) (log []diffEvent, fired uint64) {
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
					if ties && k%16 == 0 {
						start(topology.SiteID(k%sites), topology.SiteID((k+1)%sites), 10e6)
					}
				})
			}
		})
	}
	eng.Run()
	return log, eng.Fired()
}

// diffCase builds the topology and script of one differential run:
// stars on odd seeds, hierarchies on even ones.
func diffCase(t *testing.T, seed uint64, ties bool) (*topology.Topology, []diffOp) {
	topo := star(t, 6, 10e6)
	if seed%2 == 0 {
		topo = hier(t, 12, 3, 10e6)
	}
	return topo, diffScript(seed, topo.NumSites(), topo.NumLinks(), ties)
}

// TestNetworkMatchesPerFlowEventReference drives Network and the
// per-flow-event reference kernel through the same random transfers
// (with same-instant ties), cancels, outages, degradations, startup
// latency and foreign events at predicted finish times, and requires the
// same deliveries and foreign events in the same order at == instants,
// the same engine event count, and the same accounting. That pins the
// per-link index, the finish scan and the single rescheduled event.
func TestNetworkMatchesPerFlowEventReference(t *testing.T) {
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		for seed := uint64(1); seed <= 8; seed++ {
			topo, ops := diffCase(t, seed, true)
			sites := topo.NumSites()
			eng, refEng := desim.New(), desim.New()
			side := &netSide{t, New(eng, topo, policy), map[int]*Flow{}}
			ref := &refSide{newRefNet(refEng, topo, policy, false), map[int]*refFlow{}}
			got, gotFired := runDiff(ops, sites, true, eng, side)
			want, wantFired := runDiff(ops, sites, true, refEng, ref)

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
				// per flow instead of the bytes moved between re-anchors.
				if math.Abs(linkBytes[l]-wantLinkBytes[l]) > 1e-6*wantLinkBytes[l]+1e-3 {
					t.Fatalf("%s seed %d: link %d carried %v bytes, reference %v",
						name, seed, l, linkBytes[l], wantLinkBytes[l])
				}
			}
		}
	}
}

// TestLazyAnchorsMatchEagerSettlement pins that lazy anchors change only
// float rounding. The reference in eager mode re-anchors every flow at
// every change point, as settling all flows did. Network must deliver the
// same transfers, each within 1e-12 relative time, in the same order
// except among deliveries that are within that tolerance of each other:
// where exact arithmetic ties two finishes (max-min books the same rate
// out in different filling rounds, for one), an ulp picks the first.
//
// The scripts are the tie-free kind, and no foreign event starts a
// transfer. Where an operation is exactly simultaneous with a delivery,
// or several foreign events land on one flow's predicted finish (equal
// under lazy anchors, an ulp apart when settlement re-derives it), an
// ulp decides what happens next, and the runs may legitimately part.
func TestLazyAnchorsMatchEagerSettlement(t *testing.T) {
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		for seed := uint64(1); seed <= 8; seed++ {
			topo, ops := diffCase(t, seed, false)
			sites := topo.NumSites()
			eng, refEng := desim.New(), desim.New()
			got, _ := runDiff(ops, sites, false, eng, &netSide{t, New(eng, topo, policy), map[int]*Flow{}})
			want, _ := runDiff(ops, sites, false, refEng,
				&refSide{newRefNet(refEng, topo, policy, true), map[int]*refFlow{}})
			wantAt := map[int]desim.Time{}
			for _, e := range want {
				if e.kind == 'D' {
					wantAt[e.id] = e.at
				}
			}
			delivered, rounded, swapped := 0, 0, 0
			latest := math.Inf(-1) // latest reference time among deliveries so far
			for _, e := range got {
				if e.kind != 'D' {
					continue
				}
				delivered++
				w, ok := wantAt[e.id]
				if !ok {
					t.Fatalf("%s seed %d: transfer %d delivered at %v, never by the eager reference",
						policy, seed, e.id, e.at)
				}
				if math.Abs(e.at-w) > 1e-12*w {
					t.Fatalf("%s seed %d: transfer %d delivered at %v, eager reference %v",
						policy, seed, e.id, e.at, w)
				}
				if w < latest-1e-12*latest {
					t.Fatalf("%s seed %d: transfer %d (reference %v) delivered after one the reference delivered at %v",
						policy, seed, e.id, w, latest)
				}
				if e.at != w {
					rounded++
				}
				if w < latest {
					swapped++
				}
				latest = math.Max(latest, w)
			}
			if delivered != len(wantAt) {
				t.Fatalf("%s seed %d: %d deliveries, eager reference %d", policy, seed, delivered, len(wantAt))
			}
			t.Logf("%s seed %d: %d deliveries, %d times differ in rounding, %d near-ties reordered",
				policy, seed, delivered, rounded, swapped)
		}
	}
}

// TestLinkStatsDoNotPerturbDeliveries reads LinkUtilization, LinkBytes
// and LinkBacklogBytes at random instants of the reference scripts and
// requires the same events at == instants as a run that never reads
// them: the stats are pure reads.
func TestLinkStatsDoNotPerturbDeliveries(t *testing.T) {
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		for seed := uint64(1); seed <= 8; seed++ {
			topo, ops := diffCase(t, seed, true)
			sites := topo.NumSites()
			eng := desim.New()
			want, wantFired := runDiff(ops, sites, true, eng, &netSide{t, New(eng, topo, policy), map[int]*Flow{}})

			eng = desim.New()
			n := New(eng, topo, policy)
			src := rng.New(seed)
			const reads = 200
			for i := 0; i < reads; i++ {
				eng.At(src.Range(0, ops[len(ops)-1].at), func() {
					n.LinkUtilization()
					n.LinkBytes()
					n.LinkBacklogBytes(nil)
				})
			}
			got, gotFired := runDiff(ops, sites, true, eng, &netSide{t, n, map[int]*Flow{}})
			if len(got) != len(want) || gotFired != wantFired+reads {
				t.Fatalf("%s seed %d: %d events (%d fired) with reads, %d (%d fired) without",
					policy, seed, len(got), gotFired, len(want), wantFired)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: event %d = %+v with reads, %+v without", policy, seed, i, got[i], want[i])
				}
			}
		}
	}
}
