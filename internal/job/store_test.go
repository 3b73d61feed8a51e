package job

import (
	"slices"
	"testing"

	"chicsim/internal/rng"
	"chicsim/internal/storage"
)

func TestStoreRecyclesSlotAfterFree(t *testing.T) {
	s := NewStore()
	inputs := []storage.FileID{7}
	j := s.Alloc(1, 0, 3, inputs, 60)
	j.Advance(Submitted, 1)
	j.Advance(Queued, 2)
	j.Advance(Running, 3)
	j.Advance(Done, 4)
	j.Holds = append(j.Holds, Hold{Slot: 7})
	j.RunIdx = 5
	j.Retries = 2
	s.Free(j)

	if s.Live() != 0 {
		t.Fatalf("Live = %d after free, want 0", s.Live())
	}
	k := s.Alloc(2, 1, 9, nil, 30)
	if k != j {
		t.Fatalf("Alloc after Free returned a new slot, want the recycled one")
	}
	if s.HighWater() != 1 {
		t.Fatalf("HighWater = %d, want 1 (recycling must not mint slots)", s.HighWater())
	}
	// The recycled slot must be indistinguishable from a fresh job.
	if k.ID != 2 || k.User != 1 || k.Origin != 9 || k.ComputeTime != 30 {
		t.Fatalf("recycled job identity not reset: %+v", k)
	}
	if k.State != Created || k.Site != -1 || k.RunIdx != -1 {
		t.Fatalf("recycled job runtime state not reset: %+v", k)
	}
	if k.Retries != 0 || k.LastFailedSite != -1 {
		t.Fatalf("recycled job failure state not reset: %+v", k)
	}
	if len(k.Holds) != 0 || len(k.Inputs) != 0 {
		t.Fatalf("recycled job scratch not reset: holds=%d inputs=%d", len(k.Holds), len(k.Inputs))
	}
	if k.SubmitTime != -1 || k.DispatchTime != -1 || k.DataReady != -1 || k.StartTime != -1 || k.EndTime != -1 {
		t.Fatalf("recycled job timestamps not reset: %+v", *k.Times)
	}
}

func TestStorePointersStableAcrossSlabGrowth(t *testing.T) {
	s := NewStore()
	n := 3*1024 + 17 // force several slab appends
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = s.Alloc(ID(i), 0, 0, nil, 1)
		jobs[i].RunIdx = i
	}
	for i, j := range jobs {
		if j.ID != ID(i) || j.RunIdx != i {
			t.Fatalf("job %d moved or was clobbered by slab growth: %+v", i, j)
		}
	}
	if s.HighWater() != n || s.Live() != n {
		t.Fatalf("HighWater=%d Live=%d, want both %d", s.HighWater(), s.Live(), n)
	}
}

// TestStoreFreeListProperty drives a randomized alloc/free interleaving
// against a model and checks the store's core invariants: a live handle is
// never handed out twice, Live tracks the model exactly, and HighWater
// never exceeds the peak number of simultaneously live jobs — i.e. once
// the free list covers the steady state, allocation stops minting slots.
func TestStoreFreeListProperty(t *testing.T) {
	src := rng.New(20260807)
	s := NewStore()
	var live []*Job
	seen := make(map[*Job]bool) // handles currently live
	peak := 0
	nextID := ID(0)
	for op := 0; op < 20000; op++ {
		if len(live) == 0 || src.Float64() < 0.52 {
			j := s.Alloc(nextID, UserID(nextID%7), 0, nil, 1)
			nextID++
			if seen[j] {
				t.Fatalf("op %d: Alloc returned a handle that is already live (job %d)", op, j.ID)
			}
			if j.State != Created {
				t.Fatalf("op %d: Alloc returned state %v", op, j.State)
			}
			seen[j] = true
			live = append(live, j)
			if len(live) > peak {
				peak = len(live)
			}
		} else {
			i := src.Intn(len(live))
			j := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(seen, j)
			s.Free(j)
		}
		if s.Live() != len(live) {
			t.Fatalf("op %d: Live = %d, model has %d", op, s.Live(), len(live))
		}
	}
	// Slab granularity: the store may have minted up to one slab beyond
	// the peak demand, never more.
	if hw := s.HighWater(); hw > peak+1023 {
		t.Fatalf("HighWater = %d, peak live was %d: free list not reused", hw, peak)
	}
}

func TestStoreFreePanics(t *testing.T) {
	t.Run("double free", func(t *testing.T) {
		s := NewStore()
		j := s.Alloc(1, 0, 0, nil, 1)
		s.Free(j)
		defer func() {
			if recover() == nil {
				t.Fatal("double Free did not panic")
			}
		}()
		s.Free(j)
	})
	t.Run("foreign job", func(t *testing.T) {
		s := NewStore()
		j := New(1, 0, 0, nil, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("Free of a non-store job did not panic")
			}
		}()
		s.Free(j)
	})
}

// TestStoreSlabsGrowWithTheRun checks the slabs a growing store makes — 64
// jobs doubling to 1,024 — and that growing past 2,048 jobs leaves every
// first-slab handle pointing at its own job, and that the store reuses
// freed first-slab slots before it makes another.
func TestStoreSlabsGrowWithTheRun(t *testing.T) {
	s := NewStore()
	var sizes []int
	first := make([]*Job, 0, firstSlab)
	n := 2*maxSlab + firstSlab + 1
	for i := 0; i < n; i++ {
		made := len(s.fresh) == 0
		j := s.Alloc(ID(i), 0, 0, nil, 1)
		j.RunIdx = i
		if made {
			sizes = append(sizes, len(s.fresh)+1)
		}
		if i < firstSlab {
			first = append(first, j)
		}
	}
	if want := []int{64, 128, 256, 512, 1024, 1024}; !slices.Equal(sizes, want) {
		t.Fatalf("slab sizes = %v, want %v", sizes, want)
	}
	for i, j := range first {
		if j.ID != ID(i) || j.RunIdx != i {
			t.Fatalf("first-slab handle %d moved or was clobbered by slab growth: %+v", i, j)
		}
	}

	for _, j := range first {
		s.Free(j)
	}
	hw := s.HighWater()
	reused := make(map[*Job]bool, len(first))
	for i := 0; i < len(first); i++ {
		reused[s.Alloc(ID(n+i), 0, 0, nil, 1)] = true
	}
	for i, j := range first {
		if !reused[j] {
			t.Fatalf("freed first-slab slot %d was not reused", i)
		}
	}
	if s.HighWater() != hw || s.Live() != n {
		t.Fatalf("HighWater = %d, Live = %d after reuse, want %d and %d", s.HighWater(), s.Live(), hw, n)
	}
}
