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
			for i := 0; i < 64; i++ {
				src := topology.SiteID(i % 30)
				dst := topology.SiteID((i + 11) % 30)
				n.Transfer(src, dst, 1e15, nil)
			}
			i := 0
			op := func() {
				f := n.Transfer(topology.SiteID(i%30), topology.SiteID((i+7)%30), 1e15, nil)
				n.Cancel(f)
				i++
			}
			// Warm up the flow pool and the engine's node free list.
			for j := 0; j < 512; j++ {
				op()
			}
			if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
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
