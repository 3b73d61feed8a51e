package stream

import (
	"slices"
	"sort"
)

// TopK is a space-saving heavy-hitters sketch (Metwally et al.): at most
// `capacity` keys are tracked; when a new key arrives with the table
// full, the key with the smallest count is evicted and the newcomer
// inherits its count as a documented overestimate. For any key whose true
// frequency exceeds N/capacity (N = total Adds) the sketch is guaranteed
// to hold it, and each entry's error is bounded by its Over value:
// trueCount ∈ [Count−Over, Count].
//
// Eviction is deterministic: the minimum is chosen by (count, key) order,
// never by map iteration, so two sketches fed the same stream are
// identical. The entries form a binary min-heap on (count, key), so the
// victim is the root and a miss costs O(log capacity), not a scan. A hit
// only counts: a larger count can break the heap order only below that
// entry, so the entries counted since the last miss are sifted down, the
// lowest first, before the next miss reads the root. Each entry keeps a
// slot for as long as its key is tracked; the index maps a key to its
// slot and pos a slot to the entry's heap position, so a sift rewrites
// plain ints rather than map entries.
type TopK struct {
	cap     int
	entries []hotEntry    // min-heap on (count, key), but for the raised entries
	raised  []int         // positions counted since the last miss
	pos     []int         // slot → position in entries
	index   map[int64]int // key → slot
}

type hotEntry struct {
	key    int64
	count  uint64
	over   uint64
	slot   int
	raised bool // listed in raised
}

// less orders entries by (count, key): the heap's root is the eviction
// victim.
func (e *hotEntry) less(o *hotEntry) bool {
	return e.count < o.count || e.count == o.count && e.key < o.key
}

// HotItem is one reported heavy hitter. The true frequency of Key lies in
// [Count−Over, Count].
type HotItem struct {
	Key   int64
	Count uint64
	Over  uint64
}

// NewTopK returns an empty sketch tracking at most capacity keys.
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		panic("stream: topk capacity must be positive")
	}
	return &TopK{
		cap:     capacity,
		entries: make([]hotEntry, 0, capacity),
		raised:  make([]int, 0, capacity),
		pos:     make([]int, 0, capacity),
		index:   make(map[int64]int, capacity),
	}
}

// Add counts one occurrence of key.
func (t *TopK) Add(key int64) {
	if slot, ok := t.index[key]; ok {
		i := t.pos[slot]
		e := &t.entries[i]
		e.count++
		if !e.raised {
			e.raised = true
			t.raised = append(t.raised, i)
		}
		return
	}
	t.repair()
	if len(t.entries) < t.cap {
		slot := len(t.entries)
		t.index[key] = slot
		t.entries = append(t.entries, hotEntry{key: key, count: 1, slot: slot})
		t.pos = append(t.pos, slot)
		t.up(slot)
		return
	}
	// Evict the (count, key)-minimal entry, the root; the newcomer takes
	// its slot and inherits its count as the overestimate bound.
	old := t.entries[0]
	delete(t.index, old.key)
	t.entries[0] = hotEntry{key: key, count: old.count + 1, over: old.count, slot: old.slot}
	t.index[key] = old.slot
	t.down(0)
}

// repair restores the heap order after hits. Sifting the raised entries
// down from the highest position to the lowest is Floyd's heap
// construction restricted to them: each sift sees heaps below it, and a
// raised entry only breaks the order with its children.
func (t *TopK) repair() {
	slices.Sort(t.raised)
	for k := len(t.raised) - 1; k >= 0; k-- {
		i := t.raised[k]
		t.entries[i].raised = false
		t.down(i)
	}
	t.raised = t.raised[:0]
}

// up moves the entry at i toward the root while it is smaller than its
// parent.
func (t *TopK) up(i int) {
	e := t.entries[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(&t.entries[p]) {
			break
		}
		t.move(i, p)
		i = p
	}
	t.place(i, e)
}

// down moves the entry at i toward the leaves while a child is smaller.
func (t *TopK) down(i int) {
	e := t.entries[i]
	n := len(t.entries)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && t.entries[r].less(&t.entries[c]) {
			c = r
		}
		if !t.entries[c].less(&e) {
			break
		}
		t.move(i, c)
		i = c
	}
	t.place(i, e)
}

// move copies the entry at from to position to.
func (t *TopK) move(to, from int) {
	t.entries[to] = t.entries[from]
	t.pos[t.entries[to].slot] = to
}

// place puts e at position i.
func (t *TopK) place(i int, e hotEntry) {
	t.entries[i] = e
	t.pos[e.slot] = i
}

// Seen returns how many distinct keys are currently tracked.
func (t *TopK) Seen() int { return len(t.entries) }

// Items returns the k highest-count entries, ordered by count descending
// then key ascending (deterministic). k larger than the tracked set
// returns everything.
func (t *TopK) Items(k int) []HotItem {
	out := make([]HotItem, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, HotItem{Key: e.key, Count: e.count, Over: e.over})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
