package storage

import (
	"slices"
	"testing"
	"testing/quick"

	"chicsim/internal/rng"
)

func TestAddAndContains(t *testing.T) {
	s := New(100, nil)
	if !s.AddReplica(1, 40) {
		t.Fatal("add failed")
	}
	if !s.Contains(1) {
		t.Fatal("file 1 missing")
	}
	if s.Contains(2) {
		t.Fatal("phantom file 2")
	}
	h, m := s.HitRate()
	if h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d", h, m)
	}
	if s.Used() != 40 {
		t.Fatalf("Used = %v", s.Used())
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []FileID
	s := New(100, func(id FileID) { evicted = append(evicted, id) })
	s.AddReplica(1, 40)
	s.AddReplica(2, 40)
	s.Contains(1) // touch 1: now 2 is LRU
	if !s.AddReplica(3, 40) {
		t.Fatal("add 3 failed")
	}
	if s.Peek(2) {
		t.Fatal("LRU file 2 should have been evicted")
	}
	if !s.Peek(1) || !s.Peek(3) {
		t.Fatal("wrong file evicted")
	}
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
	if s.Evictions() != 1 {
		t.Fatalf("Evictions = %d", s.Evictions())
	}
}

func TestMastersNeverEvicted(t *testing.T) {
	s := New(100, nil)
	if err := s.AddMaster(1, 60); err != nil {
		t.Fatal(err)
	}
	s.AddReplica(2, 30)
	// Needs 50: only replica 2 (30) is evictable; master must survive.
	if s.AddReplica(3, 50) {
		t.Fatal("add should fail: master not evictable")
	}
	if !s.Peek(1) {
		t.Fatal("master evicted")
	}
	if !s.Peek(2) {
		t.Fatal("failed AddReplica must not evict when it cannot fit anyway")
	}
}

// A replica that fills the store to the byte once the LRU end is evicted
// fits: the fit check stops at the first unpinned prefix of the LRU that
// makes room, and equality is room.
func TestAddReplicaExactFit(t *testing.T) {
	s := New(100, nil)
	if err := s.AddMaster(1, 40); err != nil {
		t.Fatal(err)
	}
	s.AddReplica(2, 30)
	s.AddReplica(3, 10)
	s.Pin(3)
	if !s.AddReplica(4, 50) {
		t.Fatal("add should fit exactly after evicting replica 2")
	}
	if s.Peek(2) || !s.Peek(3) || s.Used() != 100 {
		t.Fatalf("resident %v, used %v", s.Resident(), s.Used())
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	s := New(100, nil)
	s.AddReplica(1, 60)
	if err := s.Pin(1); err != nil {
		t.Fatal(err)
	}
	if s.AddReplica(2, 60) {
		t.Fatal("add should fail while 1 pinned")
	}
	if err := s.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if !s.AddReplica(2, 60) {
		t.Fatal("add should succeed after unpin")
	}
	if s.Peek(1) {
		t.Fatal("1 should be evicted after unpin")
	}
}

func TestPinErrors(t *testing.T) {
	s := New(100, nil)
	if err := s.Pin(9); err == nil {
		t.Fatal("pin of absent file must error")
	}
	s.AddReplica(1, 10)
	if err := s.Unpin(1); err == nil {
		t.Fatal("unpin of unpinned file must error")
	}
	s.Pin(1)
	s.Pin(1)
	if s.Pins(1) != 2 {
		t.Fatalf("Pins = %d", s.Pins(1))
	}
	s.Unpin(1)
	if s.Pins(1) != 1 {
		t.Fatalf("Pins = %d", s.Pins(1))
	}
	if s.Pins(42) != 0 {
		t.Fatal("absent file pin count should be 0")
	}
}

func TestDuplicateAdds(t *testing.T) {
	s := New(100, nil)
	s.AddReplica(1, 40)
	if !s.AddReplica(1, 40) {
		t.Fatal("re-add of resident replica should succeed (refresh)")
	}
	if s.Used() != 40 {
		t.Fatalf("Used = %v after duplicate add", s.Used())
	}
	if err := s.AddMaster(1, 40); err == nil {
		t.Fatal("AddMaster over resident file must error")
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	s := New(0, nil)
	for i := 0; i < 1000; i++ {
		if !s.AddReplica(FileID(i), 1e12) {
			t.Fatal("unlimited store rejected a file")
		}
	}
	if s.Evictions() != 0 {
		t.Fatal("unlimited store evicted")
	}
}

func TestMasterLargerThanCapacityAllowed(t *testing.T) {
	s := New(10, nil)
	if err := s.AddMaster(1, 100); err != nil {
		t.Fatal(err)
	}
	if !s.Peek(1) {
		t.Fatal("oversized master not resident")
	}
}

func TestResident(t *testing.T) {
	s := New(0, nil)
	s.AddMaster(3, 1)
	s.AddReplica(7, 1)
	s.AddReplica(5, 1)
	if got := s.Resident(); !slices.Equal(got, []FileID{3, 5, 7}) {
		t.Fatalf("Resident = %v, want [3 5 7]", got)
	}
	if !s.IsMaster(3) || s.IsMaster(7) || s.IsMaster(99) {
		t.Fatal("IsMaster wrong")
	}
}

// Property: used never exceeds capacity when only replicas are stored, and
// used always equals the sum of resident sizes.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		const capacity = 1000.0
		sizes := make(map[FileID]float64)
		s := New(capacity, nil)
		pinned := map[FileID]bool{}
		for op := 0; op < 500; op++ {
			id := FileID(src.Intn(30))
			switch src.Intn(5) {
			case 0, 1:
				size := src.Range(1, 400)
				if prev, ok := sizes[id]; ok {
					size = prev // re-add keeps original size
				}
				if s.AddReplica(id, size) {
					sizes[id] = size
				}
			case 2:
				s.Contains(id)
			case 3:
				if s.Peek(id) && s.Pin(id) == nil {
					pinned[id] = true
				}
			case 4:
				if pinned[id] && s.Pins(id) > 0 {
					if err := s.Unpin(id); err != nil {
						return false
					}
					if s.Pins(id) == 0 {
						delete(pinned, id)
					}
				}
			}
			if s.Used() > capacity+1e-9 {
				return false
			}
			sum := 0.0
			for _, rid := range s.Resident() {
				sum += sizes[rid]
				if pinned[rid] && !s.Peek(rid) {
					return false
				}
			}
			if diff := sum - s.Used(); diff > 1e-6 || diff < -1e-6 {
				return false
			}
			// Pinned files must all still be resident.
			for id := range pinned {
				if !s.Peek(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: eviction strictly follows recency — after any access pattern,
// forcing one eviction removes exactly the least recently used unpinned
// replica.
func TestQuickLRUOrder(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := New(10, nil)
		// Ten unit-size replicas fill the store.
		for i := 0; i < 10; i++ {
			s.AddReplica(FileID(i), 1)
		}
		// Random touches define recency; track our own order.
		order := make([]FileID, 10) // order[0] = least recent
		for i := range order {
			order[i] = FileID(i)
		}
		touch := func(id FileID) {
			for i, v := range order {
				if v == id {
					order = append(append(order[:i], order[i+1:]...), id)
					return
				}
			}
		}
		for k := 0; k < 40; k++ {
			id := FileID(src.Intn(10))
			s.Contains(id)
			touch(id)
		}
		// Force one eviction; the victim must be order[0].
		victim := order[0]
		if !s.AddReplica(99, 1) {
			return false
		}
		return !s.Peek(victim)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReplica(t *testing.T) {
	var evicted []FileID
	s := New(100, func(id FileID) { evicted = append(evicted, id) })
	s.AddMaster(1, 10)
	s.AddReplica(2, 10)
	s.AddReplica(3, 10)
	s.Pin(3)
	if s.RemoveReplica(1) {
		t.Fatal("removed a master")
	}
	if s.RemoveReplica(3) {
		t.Fatal("removed a pinned file")
	}
	if s.RemoveReplica(9) {
		t.Fatal("removed an absent file")
	}
	if !s.RemoveReplica(2) {
		t.Fatal("failed to remove an unpinned replica")
	}
	if s.Peek(2) {
		t.Fatal("file still resident")
	}
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evict callback = %v", evicted)
	}
	if s.Used() != 20 {
		t.Fatalf("Used = %v", s.Used())
	}
}

func TestAddReplicaNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10, nil).AddReplica(1, -1)
}

func TestAddMasterNegativeSize(t *testing.T) {
	if err := New(10, nil).AddMaster(1, -1); err == nil {
		t.Fatal("expected error")
	}
}
