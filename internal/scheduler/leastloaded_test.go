package scheduler_test

import (
	"slices"
	"testing"

	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/schedtest"
	"chicsim/internal/topology"
)

func TestPickLeastLoaded(t *testing.T) {
	v := schedtest.NewView(4)
	v.Loads[0], v.Loads[1], v.Loads[2], v.Loads[3] = 4, 1, 1, 9
	cands := []topology.SiteID{0, 1, 2, 3}
	counts := map[topology.SiteID]int{}
	tie := rng.New(3)
	var scratch []topology.SiteID
	for i := 0; i < 300; i++ {
		counts[scheduler.PickLeastLoaded(v, cands, tie, &scratch)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("picked loaded site: %v", counts)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("ties not randomized: %v", counts)
	}
	// Deterministic without a tie-breaker: first in candidate order.
	if got := scheduler.PickLeastLoaded(v, cands, nil, &scratch); got != 1 {
		t.Fatalf("deterministic pick = %d, want 1", got)
	}
}

func TestPickLeastLoadedEmptyPanics(t *testing.T) {
	v := schedtest.NewView(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var scratch []topology.SiteID
	scheduler.PickLeastLoaded(v, nil, nil, &scratch)
}

// TestPickLeastLoadedNeverWritesCandidates pins the fix for the historical
// tie-break, which appended ties into cands[:1] and so overwrote the
// caller's slice (a GIS snapshot entry) whenever a higher load sat between
// two tied candidates.
func TestPickLeastLoadedNeverWritesCandidates(t *testing.T) {
	v := schedtest.NewView(8)
	for s, l := range []int{2, 5, 2, 7, 2, 1, 1, 3} {
		v.Loads[topology.SiteID(s)] = l
	}
	tie := rng.New(11)
	var scratch []topology.SiteID
	for n := 1; n <= 8; n++ {
		for start := 0; start+n <= 8; start++ {
			cands := make([]topology.SiteID, n)
			for i := range cands {
				cands[i] = topology.SiteID(start + i)
			}
			orig := slices.Clone(cands)
			for k := 0; k < 20; k++ {
				got := scheduler.PickLeastLoaded(v, cands, tie, &scratch)
				if !slices.Equal(cands, orig) {
					t.Fatalf("cands %v rewritten to %v", orig, cands)
				}
				if want := scheduler.LeastLoadedSet(v.Load, orig, nil); !slices.Contains(want, got) {
					t.Fatalf("picked %d from %v, not in least-loaded set %v", got, orig, want)
				}
			}
		}
	}
}

func TestLeastLoadedSetOrderAndReuse(t *testing.T) {
	v := schedtest.NewView(6)
	for s, l := range []int{3, 1, 4, 1, 5, 1} {
		v.Loads[topology.SiteID(s)] = l
	}
	dst := make([]topology.SiteID, 0, 8)
	got := scheduler.LeastLoadedSet(v.Load, []topology.SiteID{5, 0, 3, 2, 1}, dst)
	if !slices.Equal(got, []topology.SiteID{5, 3, 1}) {
		t.Fatalf("LeastLoadedSet = %v, want [5 3 1] in candidate order", got)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("LeastLoadedSet did not reuse dst's storage")
	}
	if got := scheduler.LeastLoadedSet(v.Load, nil, dst); len(got) != 0 {
		t.Fatalf("LeastLoadedSet(nil) = %v, want empty", got)
	}
}
