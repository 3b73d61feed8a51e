package netsim

import (
	"math"
	"testing"

	"chicsim/internal/topology"
)

// checkInvariants cross-checks the Network's redundant bookkeeping: the
// per-link flow index against the routes of the admitted flows, every
// stored back-pointer, the per-link occupancy counts, each flow's anchor
// arithmetic and its copy in finishAt, the holes and live count of the
// admission list, the block minima, the tracked next completion against a
// full scan, and the open busy intervals.
func checkInvariants(t testing.TB, n *Network) {
	t.Helper()
	now := n.eng.Now()
	if len(n.finishAt) != len(n.ordered) {
		t.Fatalf("%d finish times for %d flows", len(n.finishAt), len(n.ordered))
	}
	if k := len(n.ordered); k > 0 && n.ordered[k-1] == nil {
		t.Fatalf("trailing hole at ordered[%d]", k-1)
	}
	want := make([]int, len(n.onLink))
	live := 0
	for i, f := range n.ordered {
		if f == nil {
			if !math.IsInf(n.finishAt[i], 1) {
				t.Fatalf("hole at ordered[%d] has finishAt %v, want +Inf", i, n.finishAt[i])
			}
			continue
		}
		live++
		if !f.active || f.pooled {
			t.Fatalf("ordered[%d] (flow %d) active=%v pooled=%v", i, f.ID, f.active, f.pooled)
		}
		if f.ord != i {
			t.Fatalf("flow %d at ordered[%d] has ord %d", f.ID, i, f.ord)
		}
		finish := math.Inf(1)
		if f.rate > 0 {
			finish = f.anchor + f.remaining/f.rate
		}
		if f.finish != finish || n.finishAt[i] != f.finish || f.anchor > now || f.finish < now {
			t.Fatalf("flow %d at %v: anchor %v, remaining %v, rate %v, finish %v, finishAt %v",
				f.ID, now, f.anchor, f.remaining, f.rate, f.finish, n.finishAt[i])
		}
		if len(f.hopPos) != len(f.path) {
			t.Fatalf("flow %d: %d hop positions for %d hops", f.ID, len(f.hopPos), len(f.path))
		}
		for k, l := range f.path {
			want[l]++
			if p := int(f.hopPos[k]); p >= len(n.linkFlows[l]) || n.linkFlows[l][p] != f {
				t.Fatalf("flow %d: hop %d position %d on link %d is stale", f.ID, k, p, l)
			}
		}
	}
	if live != n.live || live != n.ActiveFlows() {
		t.Fatalf("%d live flows in ordered, live count %d", live, n.live)
	}
	if blocks := (len(n.ordered) + blockSize - 1) / blockSize; len(n.blockMin) != blocks {
		t.Fatalf("%d block minima for %d positions", len(n.blockMin), len(n.ordered))
	}
	for b, h := range n.blockMin {
		lo := b * blockSize
		scan := lo
		for i := lo + 1; i < len(n.finishAt) && i < lo+blockSize; i++ {
			if n.finishAt[i] < n.finishAt[scan] {
				scan = i
			}
		}
		if h >= 0 && h != scan {
			t.Fatalf("block %d: minimum at %d, scan finds %d", b, h, scan)
		}
	}
	next, best := -1, math.Inf(1)
	for i, at := range n.finishAt {
		if at < best {
			next, best = i, at
		}
	}
	var scanned *Flow
	if next >= 0 {
		scanned = n.ordered[next]
	}
	if n.rescan || n.next != scanned {
		t.Fatalf("at %v: tracked next %v (rescan %v), scan picks %v", now, flowID(n.next), n.rescan, flowID(scanned))
	}
	if n.next != nil && (n.ev.IsZero() || n.ev.At() != n.next.finish) {
		t.Fatalf("at %v: completion event does not sit at next's finish %v", now, n.next.finish)
	}
	for l, fl := range n.linkFlows {
		if len(fl) > 0 && n.share[l] != n.linkBandwidth(topology.LinkID(l))/float64(len(fl)) {
			t.Fatalf("link %d: cached share %v is stale", l, n.share[l])
		}
		if len(fl) != n.onLink[l] || len(fl) != want[l] {
			t.Fatalf("link %d: %d indexed flows, onLink %d, %d admitted routes cross it",
				l, len(fl), n.onLink[l], want[l])
		}
		for _, f := range fl {
			if !f.active || !crosses(f.path, topology.LinkID(l)) {
				t.Fatalf("link %d indexes flow %d (active=%v) whose route does not cross it", l, f.ID, f.active)
			}
		}
		if busy := n.busySince[l] >= 0; busy != (len(fl) > 0) || n.busySince[l] > now {
			t.Fatalf("link %d with %d flows: busy since %v at %v", l, len(fl), n.busySince[l], now)
		}
	}
}

// flowID names a flow in a failure message; -1 stands for none.
func flowID(f *Flow) int {
	if f == nil {
		return -1
	}
	return f.ID
}
