package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// loadKernelGolden reads the stored kernel golden hashes.
func loadKernelGolden(t *testing.T) map[string]string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "kernel_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunnerMatchesKernelGolden runs every kernel golden case on one
// Runner in three orders: sorted, reversed, and with the 60-site cases
// between the 6-site ones, so each run is built in the memory of a
// smaller or a bigger grid's run. Every run must reproduce its stored
// hash. After each run the previous run's Results are hashed again: a
// Results field that aliased a buffer the Runner reuses would have moved.
func TestRunnerMatchesKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names, cfgs := kernelGoldenCases()
	want := loadKernelGolden(t)
	var small, big []string
	for _, name := range names {
		if cfgs[name].Sites > 6 {
			big = append(big, name)
		} else {
			small = append(small, name)
		}
	}
	if len(big) == 0 || len(small) < len(big) {
		t.Fatalf("want more 6-site cases than 60-site ones, have %d and %d", len(small), len(big))
	}
	var interleaved []string
	for i, name := range small {
		interleaved = append(interleaved, name)
		if i < len(big) {
			interleaved = append(interleaved, big[i])
		}
	}
	reversed := slices.Clone(names)
	slices.Reverse(reversed)

	var r Runner
	for _, order := range []struct {
		name  string
		names []string
	}{{"sorted", names}, {"reversed", reversed}, {"interleaved", interleaved}} {
		var prevName string
		var prev Results
		for _, name := range order.names {
			res, err := r.Run(cfgs[name])
			if err != nil {
				t.Fatalf("%s: %s: %v", order.name, name, err)
			}
			if got := hashResults(t, res); got != want[name] {
				t.Errorf("%s: %s: Results hash %s, want %s", order.name, name, got, want[name])
			}
			if prevName != "" {
				if got := hashResults(t, prev); got != want[prevName] {
					t.Errorf("%s: %s's Results changed to hash %s during the next run", order.name, prevName, got)
				}
			}
			prevName, prev = name, res
		}
	}
}

// TestRunnerAfterCutAndFailedRuns builds runs in the memory of a run cut
// short by MaxTime, with flows in flight, jobs live and events pending,
// and of a config build refused, and checks each next run against a
// fresh simulation.
func TestRunnerAfterCutAndFailedRuns(t *testing.T) {
	names, cfgs := kernelGoldenCases()
	want := loadKernelGolden(t)
	cut := cfgs["contended"]
	cut.MaxTime = 2000
	bad := cfgs["faulted"]
	bad.Sites = 0

	var r Runner
	for _, name := range names[:4] {
		if res, err := r.Run(cut); err != nil || res.Completed {
			t.Fatalf("cut run: completed %v, err %v; want a run cut short", res.Completed, err)
		}
		if _, err := r.Run(bad); err == nil {
			t.Fatal("a config with no sites ran")
		}
		res, err := r.Run(cfgs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hashResults(t, res); got != want[name] {
			t.Errorf("%s after a cut and a refused run: Results hash %s, want %s", name, got, want[name])
		}
	}
}

// TestRunnerLeavesTraceUnchanged replays a caller's workload on a Runner
// between generated runs: the Runner reuses the memory of the workloads
// it generates, never that of a workload it was given.
func TestRunnerLeavesTraceUnchanged(t *testing.T) {
	cfg := smallConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := sim.Workload()
	var before bytes.Buffer
	if err := trace.WriteTrace(&before); err != nil {
		t.Fatal(err)
	}
	replay := cfg
	replay.Trace = trace
	fresh, err := RunConfig(replay)
	if err != nil {
		t.Fatal(err)
	}

	var r Runner
	other := cfg
	other.Seed, other.Files, other.TotalJobs = 99, 90, 1200
	for i := 0; i < 2; i++ {
		if _, err := r.Run(other); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(replay)
		if err != nil {
			t.Fatal(err)
		}
		if hashResults(t, res) != hashResults(t, fresh) {
			t.Fatalf("replay %d on a Runner differs from a fresh simulation's", i)
		}
	}
	var after bytes.Buffer
	if err := trace.WriteTrace(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the Runner wrote into the caller's workload")
	}
}

// paperCellConfig is one cell of the paper's Figure 3 campaign on the
// Table 1 grid: 30 sites, 120 users, 6,000 jobs.
func paperCellConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Sites, cfg.Users, cfg.Files = 30, 120, 200
	cfg.RegionFanout = 6
	cfg.TotalJobs = 6000
	cfg.LS = "FIFO"
	cfg.InfoStaleness = 30
	cfg.ES, cfg.DS, cfg.BandwidthMBps = "JobDataPresent", "DataRandom", 10
	return cfg
}

// TestRunnerReusesMemory is the host-independent guard of the Runner's
// gain: run twice on one Runner, a paper cell allocates at most an eighth
// of the bytes the second time that it did the first, built from empty
// memory.
func TestRunnerReusesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var r Runner
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Run(paperCellConfig(1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated()
	second := allocated()
	t.Logf("first run %d B, second run %d B (1/%.1f)", first, second, float64(first)/float64(second))
	if second*8 > first {
		t.Fatalf("second run allocated %d B, more than 1/8 of the first run's %d B", second, first)
	}
}
