package experiments

import (
	"strings"
	"testing"

	"chicsim/internal/core"
)

func tinyBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.Sites = 6
	cfg.Users = 12
	cfg.Files = 30
	cfg.TotalJobs = 120
	cfg.RegionFanout = 3
	return cfg
}

func TestPaperCells(t *testing.T) {
	cells := PaperCells(10)
	if len(cells) != 12 {
		t.Fatalf("cells = %d, want 12 (4 ES × 3 DS)", len(cells))
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if c.BandwidthMBps != 10 {
			t.Fatalf("bandwidth = %v", c.BandwidthMBps)
		}
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
	}
}

func TestFigure5Cells(t *testing.T) {
	cells := Figure5Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8 (4 ES × 2 bandwidths)", len(cells))
	}
	for _, c := range cells {
		if c.DS != "DataLeastLoaded" {
			t.Fatalf("DS = %s", c.DS)
		}
	}
}

func TestFullPaperCampaign(t *testing.T) {
	camp := FullPaperCampaign(core.DefaultConfig())
	if len(camp.Cells) != 24 || len(camp.Seeds) != 3 {
		t.Fatalf("campaign shape %d cells × %d seeds, want 24 × 3 (= 72 runs)", len(camp.Cells), len(camp.Seeds))
	}
}

func TestRunAggregates(t *testing.T) {
	camp := Campaign{
		Base: tinyBase(),
		Cells: []Cell{
			{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10},
			{ES: "JobLocal", DS: "DataDoNothing", BandwidthMBps: 10},
		},
		Seeds:   []uint64{1, 2},
		Workers: 2,
	}
	results := Run(camp)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, cr := range results {
		if cr.Err != nil {
			t.Fatalf("%v: %v", cr.Cell, cr.Err)
		}
		if len(cr.Runs) != 2 {
			t.Fatalf("%v: %d runs", cr.Cell, len(cr.Runs))
		}
		if cr.Runs[0].Seed != 1 || cr.Runs[1].Seed != 2 {
			t.Fatalf("%v: runs not sorted by seed", cr.Cell)
		}
		if cr.AvgResponseSec <= 0 {
			t.Fatalf("%v: no aggregate", cr.Cell)
		}
		want := (cr.Runs[0].AvgResponseSec + cr.Runs[1].AvgResponseSec) / 2
		if diff := cr.AvgResponseSec - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%v: aggregate mean wrong", cr.Cell)
		}
	}
}

// TestFeedbackStudiesHoldAllPairs checks that both feedback studies set
// the adaptive pair against the three static pairs, on the same
// contended grid, with the static winner as the control.
func TestFeedbackStudiesHoldAllPairs(t *testing.T) {
	pairs := [][2]string{
		{"JobDataPresent", "DataLeastLoaded"},
		{"JobFeedback", "DataFeedback"},
		{"JobDataPresent", "DataRandom"},
		{"JobLeastLoaded", "DataLeastLoaded"},
	}
	studies := map[string]float64{"feedback": 0, "feedback-crashes": 3600}
	for _, a := range Ablations() {
		mtbf, ok := studies[a.Name]
		if !ok {
			continue
		}
		delete(studies, a.Name)
		if len(a.Arms) != len(pairs) {
			t.Fatalf("%s: %d arms, want %d", a.Name, len(a.Arms), len(pairs))
		}
		for i, p := range pairs {
			want := Cell{ES: p[0], DS: p[1], BandwidthMBps: 10, SiteMTBF: mtbf, Param: "staleness", Value: 120}
			if a.Arms[i] != want {
				t.Errorf("%s: arm %d = %v, want %v", a.Name, i, a.Arms[i], want)
			}
		}
	}
	if len(studies) > 0 {
		t.Fatalf("feedback studies missing: %v", studies)
	}
}

// TestFeedbackRunsDeterministicAcrossWorkerCounts extends the worker-
// count determinism guarantee to the adaptive pair: the tracker samples
// on the virtual clock only, so parallel campaign scheduling must not
// leak into its telemetry.
func TestFeedbackRunsDeterministicAcrossWorkerCounts(t *testing.T) {
	base := tinyBase()
	base.InfoStaleness = 120
	mk := func(workers int) []CellResult {
		return Run(Campaign{
			Base:    base,
			Cells:   []Cell{{ES: "JobFeedback", DS: "DataFeedback", BandwidthMBps: 10}},
			Seeds:   []uint64{1, 2, 3},
			Workers: workers,
		})
	}
	a, b := mk(1), mk(4)
	if a[0].Err != nil || b[0].Err != nil {
		t.Fatalf("errs: %v %v", a[0].Err, b[0].Err)
	}
	if a[0].AvgResponseSec != b[0].AvgResponseSec || a[0].StdResponseSec != b[0].StdResponseSec {
		t.Fatal("feedback results depend on worker count")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) []CellResult {
		return Run(Campaign{
			Base:    tinyBase(),
			Cells:   []Cell{{ES: "JobDataPresent", DS: "DataRandom", BandwidthMBps: 10}},
			Seeds:   []uint64{1, 2, 3},
			Workers: workers,
		})
	}
	a, b := mk(1), mk(4)
	if a[0].AvgResponseSec != b[0].AvgResponseSec || a[0].StdResponseSec != b[0].StdResponseSec {
		t.Fatal("results depend on worker count")
	}
}

func TestRunReportsErrors(t *testing.T) {
	base := tinyBase()
	results := Run(Campaign{
		Base:  base,
		Cells: []Cell{{ES: "JobBogus", DS: "DataRandom", BandwidthMBps: 10}},
		Seeds: []uint64{1},
	})
	if results[0].Err == nil {
		t.Fatal("expected error for bogus algorithm")
	}
}

func TestByCell(t *testing.T) {
	cells := PaperCells(10)
	results := make([]CellResult, len(cells))
	for i := range results {
		results[i].Cell = cells[i]
	}
	idx := ByCell(results)
	if len(idx) != 12 {
		t.Fatalf("index size %d", len(idx))
	}
	if idx[cells[3]] != &results[3] {
		t.Fatal("index points at wrong entry")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{ES: "JobLocal", DS: "DataRandom", BandwidthMBps: 10}
	if !strings.Contains(c.String(), "JobLocal") || !strings.Contains(c.String(), "10") {
		t.Fatalf("String = %q", c)
	}
}

func TestDefaultSeedsApplied(t *testing.T) {
	results := Run(Campaign{
		Base:  tinyBase(),
		Cells: []Cell{{ES: "JobLocal", DS: "DataDoNothing", BandwidthMBps: 10}},
	})
	if len(results[0].Runs) != 3 {
		t.Fatalf("default seeds gave %d runs, want 3", len(results[0].Runs))
	}
}
