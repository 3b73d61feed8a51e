package netsim_test

import (
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/netsim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// TestSteadyStateReflowDoesNotAllocate is the zero-alloc acceptance check
// for the pooled flow storage: once the flow pool is warm, a transfer
// admission (one reflow), its cancellation (another reflow), and the
// engine step in between must not touch the heap allocator, under both
// sharing policies.
func TestSteadyStateReflowDoesNotAllocate(t *testing.T) {
	forEachPolicy(t, 512, 1000, func(n *netsim.Network, _ []*netsim.Flow) func() {
		i := 0
		return func() {
			f := n.Transfer(topology.SiteID(i%30), topology.SiteID((i+7)%30), 1e15, nil)
			n.Cancel(f)
			i++
		}
	})
}

// TestSteadyStateReflowWithHolesDoesNotAllocate cancels background flows
// from the middle of the admission order and admits replacements, so
// holes build up and compaction runs; that must not allocate either once
// the buffers have grown to their high-water mark. One op is 256 such
// swaps, several compaction cycles, because AllocsPerRun rounds the
// per-op count down.
func TestSteadyStateReflowWithHolesDoesNotAllocate(t *testing.T) {
	forEachPolicy(t, 8, 20, func(n *netsim.Network, bg []*netsim.Flow) func() {
		x := uint64(0x9E3779B97F4A7C15)
		i := 0
		return func() {
			for k := 0; k < 256; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := int(x % uint64(len(bg)))
				n.Cancel(bg[j])
				bg[j] = n.Transfer(topology.SiteID(i%30), topology.SiteID((i+7)%30), 1e15, nil)
				i++
			}
		}
	})
}

// forEachPolicy runs, under both sharing policies, a steady-state
// allocation check of the op that mkOp builds over a 30-site network
// carrying a bed of 64 long-lived background flows (handed to mkOp):
// warm ops, then the allocations of runs more.
func forEachPolicy(t *testing.T, warm, runs int, mkOp func(*netsim.Network, []*netsim.Flow) func()) {
	for _, tc := range []struct {
		name   string
		policy netsim.SharingPolicy
	}{
		{"EqualShare", netsim.EqualShare},
		{"MaxMin", netsim.MaxMinFair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := desim.New()
			topo, err := topology.NewHierarchical(
				topology.Config{Sites: 30, RegionFanout: 6, Bandwidth: 10e6}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			n := netsim.New(eng, topo, tc.policy)
			// A bed of long-lived background flows keeps reflow busy.
			bg := make([]*netsim.Flow, 64)
			for i := range bg {
				src := topology.SiteID(i % 30)
				dst := topology.SiteID((i + 11) % 30)
				bg[i] = n.Transfer(src, dst, 1e15, nil)
			}
			op := mkOp(n, bg)
			// Warm up the flow pool, the engine's node free list and the
			// admission list's high-water mark.
			for j := 0; j < warm; j++ {
				op()
			}
			if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
				t.Fatalf("steady-state reflow allocates %v/op, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateTransferCompletionDoesNotAllocate pins the full transfer
// cycle at zero allocations once the pool is warm: Transfer fills the
// recycled flow's own route buffer, and the completion returns the flow
// (buffer capacity kept) to the pool.
func TestSteadyStateTransferCompletionDoesNotAllocate(t *testing.T) {
	eng := desim.New()
	topo, err := topology.NewTiered([]int{2, 3, 5}, []float64{100e6, 10e6})
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New(eng, topo, netsim.EqualShare)
	sites := topo.NumSites()
	for i := 0; i < 16; i++ {
		n.Transfer(topology.SiteID(i%sites), topology.SiteID((i+11)%sites), 1e15, nil)
	}
	done := false
	onDone := func(*netsim.Flow) { done = true }
	i := 0
	op := func() {
		done = false
		n.Transfer(topology.SiteID(i%sites), topology.SiteID((i*7+1)%sites), 1e6, onDone)
		for !done && eng.Step() {
		}
		i++
	}
	for j := 0; j < 512; j++ {
		op()
	}
	if !done {
		t.Fatal("transfer never completed")
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("steady-state transfer and completion allocate %v/op, want 0", allocs)
	}
}
