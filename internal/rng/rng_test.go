package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical draws across seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	a := root.Derive("workload")
	b := root.Derive("topology")
	a2 := New(7).Derive("workload")
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("same-name derivation not reproducible")
		}
	}
	// Draws from b should not correlate with a fresh "workload" stream.
	c := New(7).Derive("workload")
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("derived streams with different names look identical")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("only %d/7 values seen", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("IntRange(2,5) = %d", v)
		}
	}
	if got := s.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Exp(300)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-300)/300 > 0.02 {
		t.Fatalf("Exp mean = %v, want ~300", mean)
	}
}

func TestGeometricShape(t *testing.T) {
	const n, p = 200, 0.05
	g := NewGeometric(New(17), p, n)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[g.Draw()]++
	}
	// Monotone non-increasing in expectation: compare coarse buckets.
	b0 := counts[0] + counts[1] + counts[2] + counts[3] + counts[4]
	b1 := counts[20] + counts[21] + counts[22] + counts[23] + counts[24]
	b2 := counts[60] + counts[61] + counts[62] + counts[63] + counts[64]
	if !(b0 > b1 && b1 > b2) {
		t.Fatalf("geometric not decaying: %d %d %d", b0, b1, b2)
	}
	// Ratio check: P(k+1)/P(k) should be ~(1-p).
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-(1-p)) > 0.03 {
		t.Fatalf("decay ratio = %v, want ~%v", ratio, 1-p)
	}
	// Paper's Figure 2 envelope: with p=0.05 the first 60 ranks carry
	// ~95% of all requests.
	head := 0
	for i := 0; i < 60; i++ {
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.90 {
		t.Fatalf("first 60 ranks carry %v of mass, want > 0.90", frac)
	}
}

func TestGeometricBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewGeometric(New(seed), 0.1, 30)
		for i := 0; i < 100; i++ {
			if k := g.Draw(); k < 0 || k >= 30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, c := range []struct {
		p float64
		n int
	}{{0, 10}, {1, 10}, {0.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometric(%v,%d): expected panic", c.p, c.n)
				}
			}()
			NewGeometric(New(1), c.p, c.n)
		}()
	}
}

// The sampler divides by a log1p(-p) computed once; it must draw exactly
// what the per-draw formula draws, rejections included (n = 3 rejects
// about half the draws at p = 0.2, n = 1 most of them at p = 0.1). At
// p = 1e-9, log(1-p) differs from log1p(-p) enough to move most draws.
func TestGeometricMatchesInlineFormula(t *testing.T) {
	inline := func(s *Source, p float64, n int) int {
		for {
			u := s.Float64()
			k := int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
			if k < n {
				return k
			}
		}
	}
	for _, c := range []struct {
		p float64
		n int
	}{{0.1, 200}, {0.05, 2000}, {0.1, 1}, {0.2, 3}, {0.5, 1}, {0.999, 1000}, {1e-9, 1 << 40}} {
		ref, src := New(31), New(31)
		g := NewGeometric(src, c.p, c.n)
		for i := 0; i < 1_000_000; i++ {
			if want, got := inline(ref, c.p, c.n), g.Draw(); got != want {
				t.Fatalf("p=%v n=%d draw %d: sampler %d, formula %d", c.p, c.n, i, got, want)
			}
		}
		if ref.Uint64() != src.Uint64() {
			t.Fatalf("p=%v n=%d: streams consumed different draws", c.p, c.n)
		}
	}
}

func TestZipfShape(t *testing.T) {
	z := NewZipf(New(23), 1.0, 100)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if !(counts[0] > counts[9] && counts[9] > counts[49]) {
		t.Fatalf("zipf not decaying: %d %d %d", counts[0], counts[9], counts[49])
	}
	// Rank 1 vs rank 2 should be ~2:1 for alpha=1.
	r := float64(counts[0]) / float64(counts[1])
	if r < 1.7 || r > 2.3 {
		t.Fatalf("rank1/rank2 = %v, want ~2", r)
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := NewZipf(New(29), 0, 10)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Fatalf("rank %d count %d deviates from uniform", i, c)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		s := New(seed)
		xs := make([]int, int(n)%50+1)
		for i := range xs {
			xs[i] = i
		}
		Shuffle(s, xs)
		seen := make(map[int]bool)
		for _, v := range xs {
			seen[v] = true
		}
		return len(seen) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPick(t *testing.T) {
	s := New(31)
	xs := []string{"a", "b", "c"}
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		seen[Pick(s, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose some element: %v", seen)
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(37)
	for i := 0; i < 10000; i++ {
		v := s.Range(500, 2000)
		if v < 500 || v >= 2000 {
			t.Fatalf("Range(500,2000) = %v", v)
		}
	}
}
