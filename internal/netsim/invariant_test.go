package netsim

import (
	"math"
	"testing"

	"chicsim/internal/topology"
)

// checkInvariants cross-checks the Network's redundant bookkeeping: the
// per-link flow index against the routes of the admitted flows, every
// stored back-pointer, the per-link occupancy counts, each flow's anchor
// arithmetic and its copy in finishAt, and the open busy intervals.
func checkInvariants(t testing.TB, n *Network) {
	t.Helper()
	now := n.eng.Now()
	if len(n.finishAt) != len(n.ordered) {
		t.Fatalf("%d finish times for %d flows", len(n.finishAt), len(n.ordered))
	}
	want := make([]int, len(n.onLink))
	for i, f := range n.ordered {
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
	for l, fl := range n.linkFlows {
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
