package stream

import (
	"math"
	"sort"
	"testing"

	"chicsim/internal/rng"
)

func TestHistogramExactAggregates(t *testing.T) {
	h := NewHistogram()
	vals := []float64{110, 110, 400, 0.5, 1e6}
	sum := 0.0
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
	if h.Min() != 0.5 || h.Max() != 1e6 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	if c, e := h.Bins(12); c != nil || e != nil {
		t.Fatalf("empty bins = %v/%v", c, e)
	}
}

// TestHistogramQuantileErrorBound checks the documented contract: over a
// wide value range, every quantile estimate is within RelativeError() of
// the exact nearest-rank quantile.
func TestHistogramQuantileErrorBound(t *testing.T) {
	h := NewHistogram()
	src := rng.New(42)
	vals := make([]float64, 5000)
	for i := range vals {
		// Span six orders of magnitude.
		vals[i] = math.Exp(src.Range(0, 14))
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0} {
		idx := int(math.Ceil(p*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := vals[idx]
		got := h.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > h.RelativeError() {
			t.Errorf("p=%g: got %v, exact %v, rel err %.4f > %v", p, got, exact, rel, h.RelativeError())
		}
	}
}

func TestHistogramQuantileClampedToMinMax(t *testing.T) {
	h := NewHistogram()
	h.Observe(100)
	h.Observe(200)
	if q := h.Quantile(0); q < 100 {
		t.Fatalf("p0 = %v, below exact min", q)
	}
	if q := h.Quantile(1); q > 200 {
		t.Fatalf("p100 = %v, above exact max", q)
	}
}

func TestHistogramZeroAndExtremeValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	h.Observe(1e300) // clamps into the top bucket
	h.Observe(math.NaN())
	if h.Count() != 3 {
		t.Fatalf("Count = %d (NaN must be ignored)", h.Count())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("median of {0,0,1e300} = %v, want 0", q)
	}
	if q := h.Quantile(1); q != 1e300 {
		t.Fatalf("max quantile = %v (clamp to exact max)", q)
	}
}

func TestHistogramBinsSumToCount(t *testing.T) {
	h := NewHistogram()
	src := rng.New(7)
	for i := 0; i < 1000; i++ {
		h.Observe(src.Range(10, 5000))
	}
	counts, edges := h.Bins(12)
	if len(counts) != 12 || len(edges) != 13 {
		t.Fatalf("shape = %d bins / %d edges", len(counts), len(edges))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("bin counts sum to %d, want 1000", total)
	}
	if edges[0] != h.Min() || edges[12] != h.Max() {
		t.Fatalf("edge range [%v,%v] != exact [%v,%v]", edges[0], edges[12], h.Min(), h.Max())
	}
}

func TestHistogramBinsSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(50)
	counts, edges := h.Bins(4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1 {
		t.Fatalf("total = %d", total)
	}
	// Degenerate range widens hi by 1, like stats.Histogram.
	if edges[0] != 50 || edges[len(edges)-1] != 51 {
		t.Fatalf("edges = %v", edges)
	}
}

func TestReservoirDeterministicAndUniform(t *testing.T) {
	fill := func() []int {
		r := NewReservoir[int](8, rng.New(3).Derive("results"))
		for i := 0; i < 10000; i++ {
			r.Add(i)
		}
		return r.Items()
	}
	a, b := fill(), fill()
	if len(a) != 8 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	// Uniformity smoke check over many seeds: the mean sampled index
	// should approach the stream midpoint.
	sum, n := 0.0, 0
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewReservoir[int](8, rng.New(seed))
		for i := 0; i < 2000; i++ {
			r.Add(i)
		}
		for _, v := range r.Items() {
			sum += float64(v)
			n++
		}
	}
	if mean := sum / float64(n); mean < 800 || mean > 1200 {
		t.Fatalf("sampled index mean %v, want near 1000", mean)
	}
}

func TestReservoirShortStream(t *testing.T) {
	r := NewReservoir[string](4, rng.New(1))
	r.Add("a")
	r.Add("b")
	if got := r.Items(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("short stream sample = %v", got)
	}
	if r.Seen() != 2 {
		t.Fatalf("Seen = %d", r.Seen())
	}
}
