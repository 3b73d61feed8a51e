package core

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"chicsim/internal/metrics"
)

// stripApprox zeroes the fields that are allowed to differ between result
// modes: the quantile-shaped statistics (approximate in bounded mode) and
// the exemplar sample. Everything left — every count, sum, mean, min/max,
// makespan, Gini, cache/fault/transfer counter and the hot-item lists —
// must then be byte-identical between the two modes.
func stripApprox(r Results) Results {
	r.MedResponseSec = 0
	r.P95ResponseSec = 0
	r.RespHistCounts = nil
	r.RespHistEdges = nil
	r.ResultMode = ""
	r.RespQuantileRelErr = 0
	r.Exemplars = nil
	r.Series = nil
	return r
}

// hotLists sets the full run's TopSites and TopDatasets to what an exact
// bounded run must report: the top metrics.HotReportK of the run's per-site
// completed-job counts and of the workload's per-file request counts, by
// count descending then key ascending. The request counts are the
// completed jobs' only when every job completed.
func hotLists(sim *Simulation, r *Results) {
	top := func(counts []int) []metrics.HotItem {
		var items []metrics.HotItem
		for key, n := range counts {
			if n > 0 {
				items = append(items, metrics.HotItem{Key: key, Count: n})
			}
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].Count > items[b].Count })
		return items[:min(metrics.HotReportK, len(items))]
	}
	var sites []int
	for _, n := range sim.collector.SiteJobCounts(len(sim.sites)) {
		sites = append(sites, int(n))
	}
	r.TopSites = top(sites)
	r.TopDatasets = top(sim.wl.PopularityHistogram())
}

// TestResultModeEquivalence is the bounded-mode contract: across every
// kernel-golden configuration, a bounded-mode run produces exactly the
// same exact aggregate fields as a full-mode run — same bits, enforced on
// the JSON encoding so newly added Results fields are covered by default
// unless stripApprox explicitly exempts them — and hot-item lists equal to
// the ones the full run's counts give (hotLists).
func TestResultModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names, cfgs := kernelGoldenCases()
	for _, name := range names {
		full := cfgs[name]
		full.ResultMode = ResultModeFull
		bounded := cfgs[name]
		bounded.ResultMode = ResultModeBounded

		sim, err := New(full)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		fr, err := sim.Run()
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		br, err := RunConfig(bounded)
		if err != nil {
			t.Fatalf("%s bounded: %v", name, err)
		}
		if br.ResultMode != ResultModeBounded {
			t.Fatalf("%s: bounded run reported ResultMode %q", name, br.ResultMode)
		}
		if fr.JobsDone != sim.wl.TotalJobs() {
			t.Fatalf("%s: %d of %d jobs completed; hotLists needs them all", name, fr.JobsDone, sim.wl.TotalJobs())
		}
		hotLists(sim, &fr)

		fb, err := json.Marshal(stripApprox(fr))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := json.Marshal(stripApprox(br))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb, bb) {
			t.Errorf("%s: exact fields differ between result modes\nfull:    %s\nbounded: %s", name, fb, bb)
		}
	}
}

// TestBoundedModeSketchFields checks the bounded-only outputs on one
// configuration: quantiles within the documented error of the exact ones,
// exemplars present, and hot-site and hot-dataset lists populated.
func TestBoundedModeSketchFields(t *testing.T) {
	_, cfgs := kernelGoldenCases()
	cfg := cfgs["JobDataPresent+DataLeastLoaded"]
	cfg.ResultMode = ResultModeBounded
	br, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunConfig(cfgs["JobDataPresent+DataLeastLoaded"])
	if err != nil {
		t.Fatal(err)
	}
	if br.RespQuantileRelErr <= 0 {
		t.Fatal("RespQuantileRelErr not set")
	}
	for _, q := range [][2]float64{
		{fr.MedResponseSec, br.MedResponseSec},
		{fr.P95ResponseSec, br.P95ResponseSec},
	} {
		rel := (q[1] - q[0]) / q[0]
		if rel < 0 {
			rel = -rel
		}
		if rel > br.RespQuantileRelErr {
			t.Errorf("quantile error %v exceeds bound %v (exact %v, sketch %v)",
				rel, br.RespQuantileRelErr, q[0], q[1])
		}
	}
	if len(br.Exemplars) == 0 || len(br.TopSites) == 0 || len(br.TopDatasets) == 0 {
		t.Fatalf("sketch outputs missing: %d exemplars, %d sites, %d datasets",
			len(br.Exemplars), len(br.TopSites), len(br.TopDatasets))
	}
	siteTotal := 0
	for _, s := range br.TopSites {
		siteTotal += s.Count
	}
	if siteTotal != br.JobsDone {
		t.Errorf("site counts sum to %d, want %d", siteTotal, br.JobsDone)
	}
	if fr.ResultMode != "" {
		t.Errorf("full run reported ResultMode %q", fr.ResultMode)
	}
}

// TestBoundedSeriesCapped checks that bounded mode caps Results.Series at
// the fixed point budget while full mode keeps one point per tick.
func TestBoundedSeriesCapped(t *testing.T) {
	_, cfgs := kernelGoldenCases()
	cfg := cfgs["JobDataPresent+DataLeastLoaded"]
	cfg.ObsInterval = 5 // fine-grained: thousands of virtual seconds / 5
	full, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ResultMode = ResultModeBounded
	bounded, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Series == nil || bounded.Series == nil {
		t.Fatal("series missing")
	}
	if len(bounded.Series.Points) > maxBoundedSeriesPoints {
		t.Fatalf("bounded series has %d points, cap %d", len(bounded.Series.Points), maxBoundedSeriesPoints)
	}
	// The windowed series still covers the whole run.
	fullLast := full.Series.Points[len(full.Series.Points)-1]
	boundedLast := bounded.Series.Points[len(bounded.Series.Points)-1]
	if boundedLast.T != fullLast.T {
		t.Fatalf("bounded series ends at t=%v, full at t=%v", boundedLast.T, fullLast.T)
	}
}

func TestResultModeValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResultMode = "sketchy"
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid ResultMode accepted")
	}
	for _, mode := range []string{"", ResultModeFull, ResultModeBounded} {
		cfg.ResultMode = mode
		if err := cfg.Validate(); err != nil {
			t.Fatalf("mode %q rejected: %v", mode, err)
		}
	}
}
