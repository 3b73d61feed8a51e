// Package storage implements a site's capacity-limited dataset store.
//
// Each site holds "master" copies (the initial mapping of datasets to
// sites, never evicted) plus cached replicas fetched for jobs or pushed by
// the dataset scheduler. Caches are "managed using LRU" (paper §4,
// DataDoNothing description); files in use by queued or running jobs are
// pinned and cannot be evicted.
//
// The store keeps one record per file in a slab, reached through a small
// open-addressing table keyed by FileID. Cached replicas are threaded
// through the slab as an intrusive LRU list. A record's index in the slab
// (its Slot) is stable while the file is resident or its owner holds it
// (Hold), so the site runtime keeps its own per-file state in a slice
// indexed by the same slots and pays one table lookup per file operation.
package storage

import (
	"fmt"
	"math/bits"
	"slices"
)

// FileID identifies a dataset grid-wide.
type FileID int32

// Slot is a record's index in a Store's slab. NoSlot means no record.
type Slot int32

// NoSlot is the slot of a file the store keeps no record for.
const NoSlot Slot = -1

// record is one file's state. A record exists while the file is resident
// or held; otherwise its slot is on the free list, linked through next.
type record struct {
	id       FileID
	size     float64
	pins     int32
	prev     Slot // LRU neighbour toward the front (more recent); NoSlot at the head
	next     Slot // LRU neighbour toward the back; NoSlot at the tail
	resident bool
	master   bool // never in the LRU list
	held     bool // the owner keeps state for the file (Hold)
}

// EvictFunc is notified when a cached replica is evicted.
type EvictFunc func(FileID)

// Store is one site's storage. Not safe for concurrent use (the simulation
// is single-threaded).
type Store struct {
	capacity float64
	used     float64
	tab      table
	recs     []record
	free     Slot // head of the free-slot list
	head     Slot // most recently used cached replica
	tail     Slot // least recently used cached replica
	resident int
	onEvict  EvictFunc

	evictions int
	hits      int
	misses    int
}

// New creates a store with the given capacity in bytes. A non-positive
// capacity means "unlimited" (the paper's Table 1 does not bound storage;
// bounded storage is the documented default in DESIGN.md).
func New(capacity float64, onEvict EvictFunc) *Store {
	s := new(Store)
	s.Reset(capacity, onEvict)
	return s
}

// Reset makes s the empty store New would return, keeping the arrays of
// its record slab and hash table for the next run to fill.
func (s *Store) Reset(capacity float64, onEvict EvictFunc) {
	s.tab.clear()
	*s = Store{capacity: capacity, tab: s.tab, recs: s.recs[:0], free: NoSlot, head: NoSlot, tail: NoSlot, onEvict: onEvict}
}

// Capacity returns the configured capacity (<= 0 means unlimited).
func (s *Store) Capacity() float64 { return s.capacity }

// Used returns the bytes currently resident.
func (s *Store) Used() float64 { return s.used }

// Len returns the number of resident files.
func (s *Store) Len() int { return s.resident }

// Evictions returns how many replicas have been evicted.
func (s *Store) Evictions() int { return s.evictions }

// HitRate returns cache hits/(hits+misses) as observed via Contains.
func (s *Store) HitRate() (hits, misses int) { return s.hits, s.misses }

// Lookup returns the slot of id's record, or NoSlot if the file is
// neither resident nor held.
func (s *Store) Lookup(id FileID) Slot { return s.tab.find(id) }

// Slots returns the slab length: every slot the store has handed out is
// below it.
func (s *Store) Slots() int { return len(s.recs) }

// FileAt returns the file a live slot holds.
func (s *Store) FileAt(slot Slot) FileID { return s.recs[slot].id }

// Hold returns id's slot, creating a non-resident record if there is
// none, and keeps the record (and so the slot) alive until Release even
// if the file is evicted or removed meanwhile.
func (s *Store) Hold(id FileID) Slot {
	slot := s.tab.find(id)
	if slot == NoSlot {
		slot = s.alloc(id)
	}
	s.recs[slot].held = true
	return slot
}

// Release drops the hold on a slot; a non-resident record is freed.
func (s *Store) Release(slot Slot) {
	r := &s.recs[slot]
	r.held = false
	if !r.resident {
		s.drop(slot)
	}
}

func (s *Store) alloc(id FileID) Slot {
	slot := s.free
	if slot == NoSlot {
		slot = Slot(len(s.recs))
		s.recs = append(s.recs, record{})
	} else {
		s.free = s.recs[slot].next
	}
	s.recs[slot] = record{id: id, prev: NoSlot, next: NoSlot}
	s.tab.insert(id, slot)
	return slot
}

// drop frees a record's slot.
func (s *Store) drop(slot Slot) {
	s.tab.remove(s.recs[slot].id)
	s.recs[slot].next = s.free
	s.free = slot
}

// Contains reports whether the file is resident, updating recency and
// hit/miss accounting.
func (s *Store) Contains(id FileID) bool { return s.ContainsAt(s.tab.find(id)) }

// ContainsAt is Contains for a slot (NoSlot is a miss).
func (s *Store) ContainsAt(slot Slot) bool {
	if !s.ResidentAt(slot) {
		s.misses++
		return false
	}
	s.touch(slot)
	s.hits++
	return true
}

// Touch refreshes a file's recency without hit/miss accounting. No-op for
// absent files and masters.
func (s *Store) Touch(id FileID) {
	if slot := s.tab.find(id); s.ResidentAt(slot) {
		s.touch(slot)
	}
}

// TouchAt is Touch for the slot of a resident file.
func (s *Store) TouchAt(slot Slot) { s.touch(slot) }

// Peek reports residency without touching recency or accounting.
func (s *Store) Peek(id FileID) bool { return s.ResidentAt(s.tab.find(id)) }

// ResidentAt is Peek for a slot (NoSlot is not resident).
func (s *Store) ResidentAt(slot Slot) bool { return slot != NoSlot && s.recs[slot].resident }

// AddMaster installs a permanent master copy. Masters bypass the LRU and
// count against capacity; installing masters larger than capacity is the
// configuration's problem and is allowed (a site must hold its masters).
func (s *Store) AddMaster(id FileID, size float64) error {
	slot := s.tab.find(id)
	if s.ResidentAt(slot) {
		return fmt.Errorf("storage: file %d already resident", id)
	}
	if size < 0 {
		return fmt.Errorf("storage: negative size %v", size)
	}
	if slot == NoSlot {
		slot = s.alloc(id)
	}
	r := &s.recs[slot]
	r.size, r.master, r.resident = size, true, true
	s.resident++
	s.used += size
	return nil
}

// AddReplica caches a replica, evicting least-recently-used unpinned
// replicas as needed. It returns false (and stores nothing) if the file
// cannot fit even after evicting everything evictable. Adding an
// already-resident file only refreshes recency.
func (s *Store) AddReplica(id FileID, size float64) bool {
	slot := s.tab.find(id)
	if s.ResidentAt(slot) {
		s.touch(slot)
		return true
	}
	if !s.room(size) {
		return false
	}
	if slot == NoSlot {
		slot = s.alloc(id)
	}
	s.link(slot, size)
	return true
}

// AddReplicaAt is AddReplica for a held slot.
func (s *Store) AddReplicaAt(slot Slot, size float64) bool {
	if s.recs[slot].resident {
		s.touch(slot)
		return true
	}
	if !s.room(size) {
		return false
	}
	s.link(slot, size)
	return true
}

// room checks a new replica's size and makes room for it.
func (s *Store) room(size float64) bool {
	if size < 0 {
		panic(fmt.Sprintf("storage: negative size %v", size))
	}
	return s.capacity <= 0 || s.makeRoom(size)
}

// link makes a record a resident cached replica at the LRU front.
func (s *Store) link(slot Slot, size float64) {
	r := &s.recs[slot]
	r.size, r.resident = size, true
	s.pushFront(slot)
	s.resident++
	s.used += size
}

// makeRoom evicts LRU unpinned replicas until size fits. It is
// all-or-nothing: if the file cannot fit even after evicting everything
// evictable, nothing is evicted and false is returned.
//
// The first pass sums unpinned sizes from the back and stops as soon as
// the file would fit. Adding non-negative floats never decreases a sum,
// and used-evictable+size is monotone in evictable, so a prefix that fits
// means the whole sum fits too: the decision is the one a full sum gives,
// bit for bit.
func (s *Store) makeRoom(size float64) bool {
	if s.used+size <= s.capacity {
		return true
	}
	evictable := 0.0
	fits := false
	for i := s.tail; i != NoSlot; i = s.recs[i].prev {
		if r := &s.recs[i]; r.pins == 0 {
			evictable += r.size
			if s.used-evictable+size <= s.capacity {
				fits = true
				break
			}
		}
	}
	if !fits {
		return false
	}
	// Walk from the back (least recently used), skipping pinned entries.
	for i := s.tail; i != NoSlot && s.used+size > s.capacity; {
		prev := s.recs[i].prev
		if s.recs[i].pins == 0 {
			s.removeReplica(i)
		}
		i = prev
	}
	return true
}

func (s *Store) removeReplica(slot Slot) {
	s.unlink(slot)
	r := &s.recs[slot]
	id := r.id
	r.resident = false
	s.resident--
	s.used -= r.size
	if !r.held {
		s.drop(slot)
	}
	s.evictions++
	if s.onEvict != nil {
		s.onEvict(id)
	}
}

// RemoveReplica explicitly deletes a cached replica (the Dataset
// Scheduler's "delete local files" action). It refuses masters, pinned
// files, and absent files, returning false; a successful removal notifies
// the eviction callback like an LRU eviction would.
func (s *Store) RemoveReplica(id FileID) bool { return s.RemoveReplicaAt(s.tab.find(id)) }

// RemoveReplicaAt is RemoveReplica for a slot.
func (s *Store) RemoveReplicaAt(slot Slot) bool {
	if !s.ResidentAt(slot) {
		return false
	}
	if r := &s.recs[slot]; r.master || r.pins > 0 {
		return false
	}
	s.removeReplica(slot)
	return true
}

// Pin marks a resident file as in-use; pinned files are never evicted.
// Pinning a non-resident file is an error (callers must fetch first).
func (s *Store) Pin(id FileID) error {
	slot := s.tab.find(id)
	if !s.ResidentAt(slot) {
		return fmt.Errorf("storage: pin of non-resident file %d", id)
	}
	s.recs[slot].pins++
	return nil
}

// PinAt is Pin for the slot of a resident file.
func (s *Store) PinAt(slot Slot) { s.recs[slot].pins++ }

// Unpin releases one pin.
func (s *Store) Unpin(id FileID) error {
	slot := s.tab.find(id)
	if !s.ResidentAt(slot) {
		return fmt.Errorf("storage: unpin of non-resident file %d", id)
	}
	return s.UnpinAt(slot)
}

// UnpinAt is Unpin for the slot of a resident file.
func (s *Store) UnpinAt(slot Slot) error {
	r := &s.recs[slot]
	if r.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned file %d", r.id)
	}
	r.pins--
	return nil
}

// Pins returns the pin count (0 if not resident).
func (s *Store) Pins(id FileID) int {
	if slot := s.tab.find(id); s.ResidentAt(slot) {
		return int(s.recs[slot].pins)
	}
	return 0
}

// IsMaster reports whether the resident copy is a master.
func (s *Store) IsMaster(id FileID) bool {
	slot := s.tab.find(id)
	return s.ResidentAt(slot) && s.recs[slot].master
}

// Resident returns the IDs of all resident files in ascending order.
func (s *Store) Resident() []FileID {
	out := make([]FileID, 0, s.resident)
	for i := range s.recs {
		if r := &s.recs[i]; r.resident {
			out = append(out, r.id)
		}
	}
	slices.Sort(out)
	return out
}

// touch moves a cached replica to the LRU front; masters stay put.
func (s *Store) touch(slot Slot) {
	if s.recs[slot].master || s.head == slot {
		return
	}
	s.unlink(slot)
	s.pushFront(slot)
}

func (s *Store) pushFront(slot Slot) {
	r := &s.recs[slot]
	r.prev, r.next = NoSlot, s.head
	if s.head != NoSlot {
		s.recs[s.head].prev = slot
	} else {
		s.tail = slot
	}
	s.head = slot
}

func (s *Store) unlink(slot Slot) {
	r := &s.recs[slot]
	if r.prev != NoSlot {
		s.recs[r.prev].next = r.next
	} else {
		s.head = r.next
	}
	if r.next != NoSlot {
		s.recs[r.next].prev = r.prev
	} else {
		s.tail = r.prev
	}
	r.prev, r.next = NoSlot, NoSlot
}

// table maps FileID to Slot by open addressing with linear probing,
// keeping its load at most one half. Deletion shifts later entries of a
// probe run back instead of leaving tombstones, so lookups never probe
// past the run a key belongs to. Its size follows the records a store
// keeps, never the grid's file count.
type table struct {
	ents  []tabEntry // len is zero or a power of two
	n     int
	shift uint // 64 - log2(len(ents))
}

type tabEntry struct {
	id   FileID
	slot Slot // NoSlot marks an empty entry
}

// home is the entry a key's probe starts at (Fibonacci hashing: dense
// file ids spread over the whole table).
func (t *table) home(id FileID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// clear empties the table and keeps its size.
func (t *table) clear() {
	for i := range t.ents {
		t.ents[i].slot = NoSlot
	}
	t.n = 0
}

func (t *table) find(id FileID) Slot {
	if t.n == 0 {
		return NoSlot
	}
	mask := len(t.ents) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.slot == NoSlot || e.id == id {
			return e.slot
		}
	}
}

// insert adds a key the table does not hold.
func (t *table) insert(id FileID, slot Slot) {
	if 2*(t.n+1) > len(t.ents) {
		t.grow()
	}
	t.place(id, slot)
	t.n++
}

func (t *table) place(id FileID, slot Slot) {
	mask := len(t.ents) - 1
	i := t.home(id)
	for t.ents[i].slot != NoSlot {
		i = (i + 1) & mask
	}
	t.ents[i] = tabEntry{id, slot}
}

func (t *table) grow() {
	old := t.ents
	size := 2 * len(old)
	if size == 0 {
		size = 8
	}
	t.ents = make([]tabEntry, size)
	for i := range t.ents {
		t.ents[i].slot = NoSlot
	}
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.slot != NoSlot {
			t.place(e.id, e.slot)
		}
	}
}

// remove deletes a key the table holds.
func (t *table) remove(id FileID) {
	mask := len(t.ents) - 1
	i := t.home(id)
	for t.ents[i].id != id || t.ents[i].slot == NoSlot {
		i = (i + 1) & mask
	}
	// Backward shift: move each later entry of the run whose home does
	// not lie between the hole and itself into the hole.
	for j := (i + 1) & mask; t.ents[j].slot != NoSlot; j = (j + 1) & mask {
		if (j-t.home(t.ents[j].id))&mask >= (j-i)&mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i].slot = NoSlot
	t.n--
}
