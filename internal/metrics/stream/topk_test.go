package stream

import (
	"slices"
	"testing"

	"chicsim/internal/rng"
)

// scanTopK is the linear-scan space-saving sketch TopK's heap replaced:
// each miss with the table full scans every entry for the (count, key)
// minimum. It is the reference the heap must match.
type scanTopK struct {
	cap     int
	entries []hotEntry
	index   map[int64]int
}

func (t *scanTopK) Add(key int64) {
	if pos, ok := t.index[key]; ok {
		t.entries[pos].count++
		return
	}
	if len(t.entries) < t.cap {
		t.index[key] = len(t.entries)
		t.entries = append(t.entries, hotEntry{key: key, count: 1})
		return
	}
	minPos := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].less(&t.entries[minPos]) {
			minPos = i
		}
	}
	old := t.entries[minPos]
	delete(t.index, old.key)
	t.entries[minPos] = hotEntry{key: key, count: old.count + 1, over: old.count}
	t.index[key] = minPos
}

// TestTopKHeapMatchesScan feeds the heap and the linear-scan reference
// the same Zipf and uniform streams, from miss-heavy to all hits, and
// requires, after every Add, the same tracked set, counts and
// overestimate bounds.
func TestTopKHeapMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alpha float64
		keys  int
	}{
		{"zipf", 1.1, 5000},
		{"uniform", 0, 300},
		{"narrow-zipf", 1.1, 100},
		{"under-capacity", 0, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			z := rng.NewZipf(rng.New(11), tc.alpha, tc.keys)
			heap := NewTopK(64)
			ref := &scanTopK{cap: 64, index: make(map[int64]int)}
			for i := 0; i < 10000; i++ {
				key := int64(z.Draw())
				heap.Add(key)
				ref.Add(key)
				if heap.Seen() != len(ref.entries) {
					t.Fatalf("add %d: Seen %d, reference %d", i, heap.Seen(), len(ref.entries))
				}
				got, want := heap.Items(64), (&TopK{entries: ref.entries}).Items(64)
				if !slices.Equal(got, want) {
					t.Fatalf("add %d (key %d): items\n%v\nreference\n%v", i, key, got, want)
				}
			}
		})
	}
}

// BenchmarkTopKAdd measures one Add to a full 64-entry sketch on three
// stream shapes: Zipf over 2000 keys (the per-dataset hot list), uniform
// over 1000 keys (the per-site list of a 1000-site grid, nearly all
// misses) and 30 keys in turn (every Add a hit).
func BenchmarkTopKAdd(b *testing.B) {
	for _, tc := range []struct {
		name  string
		alpha float64
		keys  int
	}{
		{"zipf", 1.0, 2000},
		{"uniform", 0, 1000},
		{"hits", 0, 30},
	} {
		b.Run(tc.name, func(b *testing.B) {
			z := rng.NewZipf(rng.New(1), tc.alpha, tc.keys)
			keys := make([]int64, 1<<16)
			for i := range keys {
				keys[i] = int64(z.Draw())
			}
			k := NewTopK(64)
			for _, key := range keys {
				k.Add(key)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Add(keys[i&(len(keys)-1)])
			}
		})
	}
}
