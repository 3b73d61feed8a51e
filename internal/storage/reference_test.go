package storage

import (
	"container/list"
	"fmt"
	"math"
	"slices"
	"testing"

	"chicsim/internal/rng"
)

// refStore is the store as it was before the file table: a Go map of
// entries and a container/list LRU. It is the reference the table-backed
// Store must match operation for operation, down to the bits of Used.
type refStore struct {
	capacity float64
	used     float64
	files    map[FileID]*refEntry
	lru      *list.List // front = most recently used; values are *refEntry
	onEvict  EvictFunc

	evictions, hits, misses int
}

type refEntry struct {
	id     FileID
	size   float64
	master bool
	pins   int
	lru    *list.Element // nil for masters
}

func newRef(capacity float64, onEvict EvictFunc) *refStore {
	return &refStore{capacity: capacity, files: make(map[FileID]*refEntry), lru: list.New(), onEvict: onEvict}
}

func (s *refStore) Contains(id FileID) bool {
	e, ok := s.files[id]
	if ok {
		s.touch(e)
		s.hits++
	} else {
		s.misses++
	}
	return ok
}

func (s *refStore) Touch(id FileID) {
	if e, ok := s.files[id]; ok {
		s.touch(e)
	}
}

func (s *refStore) AddMaster(id FileID, size float64) error {
	if _, ok := s.files[id]; ok {
		return fmt.Errorf("storage: file %d already resident", id)
	}
	s.files[id] = &refEntry{id: id, size: size, master: true}
	s.used += size
	return nil
}

func (s *refStore) AddReplica(id FileID, size float64) bool {
	if e, ok := s.files[id]; ok {
		s.touch(e)
		return true
	}
	if s.capacity > 0 && !s.makeRoom(size) {
		return false
	}
	e := &refEntry{id: id, size: size}
	e.lru = s.lru.PushFront(e)
	s.files[id] = e
	s.used += size
	return true
}

// makeRoom sums every unpinned size before deciding, as the store did
// before the early exit.
func (s *refStore) makeRoom(size float64) bool {
	if s.used+size <= s.capacity {
		return true
	}
	evictable := 0.0
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*refEntry); e.pins == 0 {
			evictable += e.size
		}
	}
	if s.used-evictable+size > s.capacity {
		return false
	}
	for el := s.lru.Back(); el != nil && s.used+size > s.capacity; {
		prev := el.Prev()
		if e := el.Value.(*refEntry); e.pins == 0 {
			s.removeReplica(e)
		}
		el = prev
	}
	return true
}

func (s *refStore) removeReplica(e *refEntry) {
	s.lru.Remove(e.lru)
	delete(s.files, e.id)
	s.used -= e.size
	s.evictions++
	if s.onEvict != nil {
		s.onEvict(e.id)
	}
}

func (s *refStore) RemoveReplica(id FileID) bool {
	e, ok := s.files[id]
	if !ok || e.master || e.pins > 0 {
		return false
	}
	s.removeReplica(e)
	return true
}

func (s *refStore) Pin(id FileID) error {
	e, ok := s.files[id]
	if !ok {
		return fmt.Errorf("storage: pin of non-resident file %d", id)
	}
	e.pins++
	return nil
}

func (s *refStore) Unpin(id FileID) error {
	e, ok := s.files[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident file %d", id)
	}
	if e.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned file %d", id)
	}
	e.pins--
	return nil
}

func (s *refStore) Pins(id FileID) int {
	if e, ok := s.files[id]; ok {
		return e.pins
	}
	return 0
}

func (s *refStore) IsMaster(id FileID) bool {
	e, ok := s.files[id]
	return ok && e.master
}

func (s *refStore) Resident() []FileID {
	out := make([]FileID, 0, len(s.files))
	for id := range s.files {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (s *refStore) touch(e *refEntry) {
	if e.lru != nil {
		s.lru.MoveToFront(e.lru)
	}
}

// TestStoreMatchesReference drives random operation sequences through the
// store and the map + container/list reference side by side: masters,
// replicas under capacity pressure with pins held across evictions,
// hits and misses, touches, unpins and explicit removals, plus holds and
// releases of records that outlive residency, each by file id or, on a
// held record, by slot. After every operation the two must agree on the
// operation's result, Used bit for bit, residency, the eviction-callback
// sequence, hit and miss counts, pins, masters and Len. Ids come from a small dense range or, in some sequences, from
// sparse 40-bit values, so table probe runs wrap and backward-shift
// deletions move entries across them.
func TestStoreMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkAgainstReference(t, seed) })
	}
}

func checkAgainstReference(t *testing.T, seed uint64) {
	src := rng.New(seed)
	ids := make([]FileID, 24+src.Intn(40))
	for i := range ids {
		ids[i] = FileID(i)
		if seed%3 == 0 {
			ids[i] = FileID(src.Uint64() >> 24)
		}
	}
	sizes := make(map[FileID]float64, len(ids))
	for _, id := range ids {
		sizes[id] = src.Range(0.5e9, 2e9) // non-integer: sum order matters
	}
	capacity := src.Range(3e9, 12e9)
	if seed%7 == 0 {
		capacity = 0 // unlimited
	}
	var gotEv, wantEv []FileID
	s := New(capacity, func(id FileID) { gotEv = append(gotEv, id) })
	ref := newRef(capacity, func(id FileID) { wantEv = append(wantEv, id) })
	held := map[FileID]Slot{}

	for op := 0; op < 3000; op++ {
		id := ids[src.Intn(len(ids))]
		var got, want any
		switch k := src.Intn(100); {
		case k < 4:
			got, want = s.AddMaster(id, sizes[id]) == nil, ref.AddMaster(id, sizes[id]) == nil
		case k < 34:
			if slot, ok := held[id]; ok && src.Intn(2) == 0 {
				got = s.AddReplicaAt(slot, sizes[id])
			} else {
				got = s.AddReplica(id, sizes[id])
			}
			want = ref.AddReplica(id, sizes[id])
		case k < 50:
			if slot, ok := held[id]; ok && src.Intn(2) == 0 {
				got = s.ContainsAt(slot)
			} else {
				got = s.Contains(id)
			}
			want = ref.Contains(id)
		case k < 56:
			if slot, ok := held[id]; ok && s.ResidentAt(slot) && src.Intn(2) == 0 {
				s.TouchAt(slot)
			} else {
				s.Touch(id)
			}
			ref.Touch(id)
		case k < 68:
			if slot, ok := held[id]; ok && s.ResidentAt(slot) && src.Intn(2) == 0 {
				s.PinAt(slot)
				got = true
			} else {
				got = s.Pin(id) == nil
			}
			want = ref.Pin(id) == nil
		case k < 80:
			if slot, ok := held[id]; ok && s.ResidentAt(slot) && src.Intn(2) == 0 {
				got = s.UnpinAt(slot) == nil
			} else {
				got = s.Unpin(id) == nil
			}
			want = ref.Unpin(id) == nil
		case k < 86:
			got, want = s.RemoveReplica(id), ref.RemoveReplica(id)
		case k < 93:
			slot := s.Hold(id)
			if prev, ok := held[id]; ok && prev != slot {
				t.Fatalf("op %d: Hold(%d) = slot %d, held at %d", op, id, slot, prev)
			}
			held[id] = slot
		default:
			if slot, ok := held[id]; ok {
				s.Release(slot)
				delete(held, id)
			}
		}
		if got != want {
			t.Fatalf("op %d on file %d: store returned %v, reference %v", op, id, got, want)
		}
		if math.Float64bits(s.Used()) != math.Float64bits(ref.used) {
			t.Fatalf("op %d: Used = %v, reference %v", op, s.Used(), ref.used)
		}
		if !slices.Equal(gotEv, wantEv) {
			t.Fatalf("op %d: evictions %v, reference %v", op, gotEv, wantEv)
		}
		gh, gm := s.HitRate()
		if gh != ref.hits || gm != ref.misses || s.Evictions() != ref.evictions || s.Len() != len(ref.files) {
			t.Fatalf("op %d: hits/misses/evictions/len %d/%d/%d/%d, reference %d/%d/%d/%d",
				op, gh, gm, s.Evictions(), s.Len(), ref.hits, ref.misses, ref.evictions, len(ref.files))
		}
		if res := s.Resident(); !slices.Equal(res, ref.Resident()) {
			t.Fatalf("op %d: Resident = %v, reference %v", op, res, ref.Resident())
		}
		for _, f := range ids {
			if s.Peek(f) != (ref.files[f] != nil) || s.Pins(f) != ref.Pins(f) || s.IsMaster(f) != ref.IsMaster(f) {
				t.Fatalf("op %d: file %d peek/pins/master %v/%d/%v, reference %v/%d/%v", op, f,
					s.Peek(f), s.Pins(f), s.IsMaster(f), ref.files[f] != nil, ref.Pins(f), ref.IsMaster(f))
			}
			slot, ok := held[f]
			if want := ok || ref.files[f] != nil; (s.Lookup(f) != NoSlot) != want {
				t.Fatalf("op %d: file %d has a record %v, want %v", op, f, s.Lookup(f) != NoSlot, want)
			}
			if ok && (s.Lookup(f) != slot || s.FileAt(slot) != f) {
				t.Fatalf("op %d: held file %d moved from slot %d to %d", op, f, slot, s.Lookup(f))
			}
		}
	}
	// The table holds exactly the live records, and every other slot is
	// on the free list.
	live := 0
	for _, f := range ids {
		if s.Lookup(f) != NoSlot {
			live++
		}
	}
	free := 0
	for i := s.free; i != NoSlot; i = s.recs[i].next {
		free++
	}
	if s.tab.n != live || live+free != s.Slots() {
		t.Fatalf("table holds %d keys, %d records live, %d free of %d slots", s.tab.n, live, free, s.Slots())
	}
}
