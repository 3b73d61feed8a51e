package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestStackLayer(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		// Runtime and standard-library frames are charged to their caller.
		{[]string{"runtime.mallocgc", "chicsim/internal/netsim.(*Network).reflow", "chicsim/internal/core.(*Simulation).Run"}, "netsim"},
		{[]string{"sort.Slice", "chicsim/internal/gis.(*Service).LeastLoaded", "chicsim/internal/scheduler/es.(*LeastLoaded).Place"}, "gis"},
		{[]string{"main.(*stamp).Record", "chicsim/internal/core.(*Simulation).submitNext"}, "bench"},
		{[]string{"chicsim/cmd/gridbench.(*stamp).Record", "chicsim/internal/core.(*Simulation).submitNext"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
		// Closures, nested packages and type parameters.
		{[]string{"chicsim/internal/scheduler/es.(*Random).Place.func1"}, "es"},
		{[]string{"chicsim/internal/scheduler/ds.(*LeastLoaded).Decide"}, "ds"},
		{[]string{"chicsim/internal/metrics/stream.(*Reservoir[go.shape.struct { chicsim/internal/netsim.x int }]).Add"}, "metrics"},
		{[]string{"chicsim/internal/core.New.func3"}, "core"},
		// Helper packages fold into other.
		{[]string{"chicsim/internal/rng.(*Source).Uint64", "chicsim/internal/workload.Generate"}, "other"},
		{[]string{"chicsim/internal/obs/registry.(*Registry).Counter"}, "other"},
		{[]string{"chicsim/internal/scheduler/feedback.(*Tracker).Observe"}, "other"},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range layerByPkg {
		if !known[l] {
			t.Errorf("package %s maps to %q, which is not in layers", pkg, l)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink = spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	var total, spin int64
	for i, st := range p.stacks {
		if p.ns[i] <= 0 {
			t.Fatalf("sample %d has %d ns", i, p.ns[i])
		}
		total += p.ns[i]
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += p.ns[i]
				// The whole stack decoded, down to the goroutine's root.
				if root := st[len(st)-1]; root != "testing.tRunner" {
					t.Errorf("stack through spinForProfile ends in %q: %q", root, st)
				}
				break
			}
		}
	}
	// 400 ms of spinning at 100 Hz: allow for a slow or busy machine.
	if total < int64(100*time.Millisecond) || total > int64(2*time.Second) {
		t.Errorf("profile holds %v of CPU time, want about 400ms", time.Duration(total))
	}
	if spin*2 < total {
		t.Errorf("spinForProfile is in %v of %v sampled", time.Duration(spin), time.Duration(total))
	}
	if got := p.layerNanos()["bench"]; got < spin {
		t.Errorf("bench layer has %v, want at least the %v of spinForProfile", time.Duration(got), time.Duration(spin))
	}
}

func TestParseCPUProfileRejectsBadInput(t *testing.T) {
	var heap bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{
		"heap profile":  heap.Bytes(),
		"truncated":     heap.Bytes()[:len(heap.Bytes())/2],
		"garbage":       []byte("not a profile at all"),
		"bad wire type": {0x0f},
	}
	for name, in := range inputs {
		if _, err := parseCPUProfile(in); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
