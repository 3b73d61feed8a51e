package registry

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	jobs := r.Counter("sim_jobs_total", "Jobs by state.", "state")
	done := jobs.With("done")
	failed := jobs.With("failed")
	done.Inc()
	done.Add(2)
	failed.Inc()
	if got := done.Value(); got != 3 {
		t.Fatalf("done = %v, want 3", got)
	}
	if got := failed.Value(); got != 1 {
		t.Fatalf("failed = %v, want 1", got)
	}
	if v, ok := r.Value("sim_jobs_total", "done"); !ok || v != 3 {
		t.Fatalf("Value(done) = %v, %v", v, ok)
	}
	if _, ok := r.Value("sim_jobs_total", "nope"); ok {
		t.Fatal("Value for unknown series should be !ok")
	}
	if _, ok := r.Value("missing_family"); ok {
		t.Fatal("Value for unknown family should be !ok")
	}

	// Every label count keys its series the same way: no labels, and two
	// labels whose values would run together without a separator.
	r.Counter("runs_total", "").With().Inc()
	moves := r.Counter("moves_total", "", "from", "to")
	moves.With("a", "bc").Inc()
	moves.With("ab", "c").Add(2)
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"runs_total", nil, 1},
		{"moves_total", []string{"a", "bc"}, 1},
		{"moves_total", []string{"ab", "c"}, 2},
	} {
		if v, ok := r.Value(tc.name, tc.labels...); !ok || v != tc.want {
			t.Errorf("Value(%s%q) = %v, %v, want %v", tc.name, tc.labels, v, ok, tc.want)
		}
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := New()
	g := r.Gauge("queue_depth", "Queued jobs.", "site").With("3")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestZeroValueHandlesAreNoOps(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("zero-value handles should read 0")
	}
}

func TestCounterNegativePanics(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "").With()
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add should panic")
		}
	}()
	c.Add(-1)
}

func TestRegisterIdempotentAndConflicts(t *testing.T) {
	r := New()
	a := r.Counter("same_total", "help", "l")
	b := r.Counter("same_total", "help", "l")
	a.With("x").Inc()
	b.With("x").Inc()
	if v, _ := r.Value("same_total", "x"); v != 2 {
		t.Fatalf("idempotent registration should share cells; got %v", v)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("kind conflict", func() { r.Gauge("same_total", "help", "l") })
	mustPanic("label conflict", func() { r.Counter("same_total", "help", "other") })
	mustPanic("bad metric name", func() { r.Counter("bad name", "") })
	mustPanic("bad label name", func() { r.Counter("ok_total", "", "bad-label") })
	mustPanic("non-ascending buckets", func() { r.Histogram("h", "", []float64{1, 1}) })
	r.Histogram("hist_ok", "", []float64{1, 2})
	mustPanic("bucket conflict", func() { r.Histogram("hist_ok", "", []float64{1, 3}) })
	mustPanic("label arity", func() { r.Counter("same_total", "help", "l").With("a", "b") })
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("resp_seconds", "Response time.", []float64{1, 10, 100}).With()
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	fams := r.Gather()
	if len(fams) != 1 {
		t.Fatalf("families = %d", len(fams))
	}
	s := fams[0].Samples[0]
	if s.Hist == nil {
		t.Fatal("histogram sample missing Hist")
	}
	// le=1 captures 0.5 and 1 (inclusive), le=10 adds 5, le=100 adds 50,
	// +Inf adds 500.
	wantCum := []uint64{2, 3, 4, 5}
	if !reflect.DeepEqual(s.Hist.CumCounts, wantCum) {
		t.Fatalf("CumCounts = %v, want %v", s.Hist.CumCounts, wantCum)
	}
	if s.Hist.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Hist.Count)
	}
	if want := 0.5 + 1 + 5 + 50 + 500; s.Hist.Sum != want {
		t.Fatalf("Sum = %v, want %v", s.Hist.Sum, want)
	}
}

func TestGatherDeterministicOrder(t *testing.T) {
	build := func(order []string) string {
		r := New()
		c := r.Counter("b_total", "second family", "site")
		g := r.Gauge("a_level", "first family", "site")
		for _, s := range order {
			c.With(s).Inc()
			g.With(s).Set(1)
		}
		var sb strings.Builder
		if err := WritePrometheus(&sb, r.Gather()); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := build([]string{"0", "1", "2", "10"})
	b := build([]string{"10", "2", "0", "1"})
	if a != b {
		t.Fatalf("Gather order depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	// Families must appear in registration order (b_total before a_level).
	if ib, ia := strings.Index(a, "b_total"), strings.Index(a, "a_level"); ib > ia {
		t.Fatal("families not in registration order")
	}
}

func TestConcurrentUpdatesDeterministicTotals(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "").With()
	h := r.Histogram("h", "", []float64{10, 100}).With()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %v, want %d", got, workers*each)
	}
	fams := r.Gather()
	hv := fams[1].Samples[0].Hist
	if hv.Count != workers*each {
		t.Fatalf("hist count = %d, want %d", hv.Count, workers*each)
	}
	if hv.CumCounts[len(hv.CumCounts)-1] != hv.Count {
		t.Fatalf("last cum count %d != count %d", hv.CumCounts[len(hv.CumCounts)-1], hv.Count)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("jobs_total", "Jobs with \\ and \n in help.", "state").With("done").Add(4)
	r.Gauge("temp", "").With().Set(-1.5)
	r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}, "site").With("s\"0\n").Observe(0.05)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Gather()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs with \\\\ and \\n in help.\n",
		"# TYPE jobs_total counter\n",
		`jobs_total{state="done"} 4` + "\n",
		"# TYPE temp gauge\n",
		"temp -1.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{site="s\"0\n",le="0.1"} 1` + "\n",
		`lat_seconds_bucket{site="s\"0\n",le="+Inf"} 1` + "\n",
		`lat_seconds_sum{site="s\"0\n"} 0.05` + "\n",
		`lat_seconds_count{site="s\"0\n"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP temp") {
		t.Fatal("empty help should emit no HELP line")
	}
	if err := CheckText(strings.NewReader(out)); err != nil {
		t.Fatalf("own output fails CheckText: %v", err)
	}
}

// TestHistogramZeroObservations: a registered-but-never-observed
// histogram must still gather and render as a complete, valid family —
// all-zero cumulative buckets, zero count and sum — because a monitor
// can scrape before the first job completes.
func TestHistogramZeroObservations(t *testing.T) {
	r := New()
	_ = r.Histogram("idle_seconds", "Never observed.", []float64{1, 10}).With()
	fams := r.Gather()
	hv := fams[0].Samples[0].Hist
	if hv.Count != 0 || hv.Sum != 0 {
		t.Fatalf("empty histogram count/sum = %d/%v, want 0/0", hv.Count, hv.Sum)
	}
	if want := []uint64{0, 0, 0}; !reflect.DeepEqual(hv.CumCounts, want) {
		t.Fatalf("CumCounts = %v, want %v", hv.CumCounts, want)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, fams); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`idle_seconds_bucket{le="1"} 0` + "\n",
		`idle_seconds_bucket{le="+Inf"} 0` + "\n",
		"idle_seconds_sum 0\n",
		"idle_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if err := CheckText(strings.NewReader(out)); err != nil {
		t.Fatalf("empty-histogram exposition fails CheckText: %v", err)
	}
}

// TestHistogramSingleBucket: the smallest legal bucket layout still
// splits observations between the one finite bound and +Inf.
func TestHistogramSingleBucket(t *testing.T) {
	r := New()
	h := r.Histogram("tiny_seconds", "", []float64{5}).With()
	h.Observe(3)
	h.Observe(5) // le is inclusive
	h.Observe(7)
	hv := r.Gather()[0].Samples[0].Hist
	if want := []uint64{2, 3}; !reflect.DeepEqual(hv.CumCounts, want) {
		t.Fatalf("CumCounts = %v, want %v", hv.CumCounts, want)
	}
	if hv.Count != 3 || hv.Sum != 15 {
		t.Fatalf("count/sum = %d/%v, want 3/15", hv.Count, hv.Sum)
	}
}

// TestCheckTextEmptyFamily: a family with headers but no sample lines
// (registered, no children yet) is valid exposition text, as is a fully
// empty document.
func TestCheckTextEmptyFamily(t *testing.T) {
	r := New()
	r.Counter("pending_total", "Registered before any labelled child exists.", "state")
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Gather()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE pending_total counter\n") {
		t.Fatalf("missing TYPE header:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pending_total") {
			t.Fatalf("childless family should emit no sample lines, got %q", line)
		}
	}
	if err := CheckText(strings.NewReader(out)); err != nil {
		t.Fatalf("header-only family fails CheckText: %v", err)
	}
	if err := CheckText(strings.NewReader("")); err != nil {
		t.Fatalf("empty document fails CheckText: %v", err)
	}
}

// TestRuntimeProbe: registering the Go runtime probe makes heap/GC/
// goroutine gauges appear with live values on Gather, and repeated
// registration is a no-op rather than a duplicate-family panic.
func TestRuntimeProbe(t *testing.T) {
	r := New()
	RegisterRuntimeProbe(r)
	RegisterRuntimeProbe(r) // idempotent
	got := map[string]float64{}
	for _, f := range r.Gather() {
		if len(f.Samples) == 1 {
			got[f.Name] = f.Samples[0].Value
		}
	}
	if got["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v, want > 0", got["go_heap_alloc_bytes"])
	}
	if got["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", got["go_goroutines"])
	}
	if _, ok := got["go_gc_cycles_total"]; !ok {
		t.Error("go_gc_cycles_total not gathered")
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Gather()); err != nil {
		t.Fatal(err)
	}
	if err := CheckText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("runtime probe exposition fails CheckText: %v", err)
	}
}

// TestOnGatherHook: hooks run before the snapshot, so a pull-based gauge
// refreshed in a hook is current in the same Gather; nil hooks panic.
func TestOnGatherHook(t *testing.T) {
	r := New()
	g := r.Gauge("refreshed", "").With()
	calls := 0
	r.OnGather(func() { calls++; g.Set(float64(calls)) })
	if v := r.Gather()[0].Samples[0].Value; v != 1 {
		t.Fatalf("first gather saw %v, want 1", v)
	}
	if v := r.Gather()[0].Samples[0].Value; v != 2 {
		t.Fatalf("second gather saw %v, want 2", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OnGather(nil) should panic")
		}
	}()
	r.OnGather(nil)
}

func TestFormatValueSpecials(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{0, "0"},
		{2.5, "2.5"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

// CheckText is exercised against deliberately malformed inputs too.
func TestCheckTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"name{unclosed=\"x\" 1\n",
		"name 12abc\n",
		"# TYPE x bogus\n",
	} {
		if err := CheckText(strings.NewReader(bad)); err == nil {
			t.Errorf("CheckText accepted %q", bad)
		}
	}
	good := "# HELP a_total help text\n# TYPE a_total counter\na_total{x=\"1\"} 5\n\n"
	if err := CheckText(strings.NewReader(good)); err != nil {
		t.Errorf("CheckText rejected good input: %v", err)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("bench_total", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	_ = c.Value()
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("bench_h", "", []float64{1, 2, 4, 8, 16, 32, 64}).With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100))
	}
}

// TestFold: folding A then B gives the counters and histogram counts of
// one registry that saw both runs' updates, gauges end at B's values, and
// a family conflicting with one the target holds panics.
func TestFold(t *testing.T) {
	buckets := []float64{10, 100}
	type run struct {
		done, queued float64
		obs          []float64
	}
	runs := []run{{3, 7, []float64{5, 50, 500}}, {2, 4, []float64{20, 1000}}}
	update := func(r *Registry, x run) {
		r.Counter("jobs_total", "Jobs.", "state").With("done").Add(x.done)
		r.Gauge("queued", "Queued.").With().Set(x.queued)
		h := r.Histogram("resp", "Response.", buckets, "site").With("0")
		for _, v := range x.obs {
			h.Observe(v)
		}
	}
	both, folded := New(), New()
	for _, x := range runs {
		update(both, x)
		one := New()
		update(one, x)
		folded.Fold(one)
	}
	if v, _ := folded.Value("jobs_total", "done"); v != 5 {
		t.Errorf("folded counter = %v, want 5", v)
	}
	if v, _ := folded.Value("queued"); v != runs[1].queued {
		t.Errorf("folded gauge = %v, want the last run's %v", v, runs[1].queued)
	}
	want, got := both.Gather(), folded.Gather()
	if len(got) != len(want) {
		t.Fatalf("folded %d families, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Errorf("family %d = %s, want %s (source order)", i, got[i].Name, want[i].Name)
		}
	}
	if w, g := want[0].Samples[0].Value, got[0].Samples[0].Value; g != w {
		t.Errorf("counter = %v, want %v", g, w)
	}
	wh, gh := want[2].Samples[0].Hist, got[2].Samples[0].Hist
	if !reflect.DeepEqual(gh.CumCounts, wh.CumCounts) || gh.Count != wh.Count || gh.Sum != wh.Sum {
		t.Errorf("histogram = %+v, want %+v", gh, wh)
	}

	conflict := New()
	conflict.Gauge("jobs_total", "Jobs.", "state").With("done").Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("folding a conflicting family should panic")
		}
	}()
	folded.Fold(conflict)
}
