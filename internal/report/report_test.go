package report

import (
	"fmt"
	"strings"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/metrics"
	"chicsim/internal/obs"
	"chicsim/internal/stats"
)

func fakeResults() []experiments.CellResult {
	var out []experiments.CellResult
	v := 100.0
	for _, dsName := range core.PaperDatasetNames() {
		for _, esName := range core.PaperExternalNames() {
			cr := experiments.CellResult{
				Cell:            experiments.Cell{ES: esName, DS: dsName, BandwidthMBps: 10},
				AvgResponseSec:  v,
				AvgDataPerJobMB: v / 2,
				AvgIdleFrac:     0.5,
				Runs:            []core.Results{{Results: metrics.Results{JobsDone: 1}}},
			}
			out = append(out, cr)
			v += 100
		}
	}
	return out
}

func TestGrid(t *testing.T) {
	var sb strings.Builder
	Grid(&sb, fakeResults(), ResponseTime, core.PaperExternalNames(), core.PaperDatasetNames(), 10)
	got := sb.String()
	for _, name := range core.PaperExternalNames() {
		if !strings.Contains(got, name) {
			t.Fatalf("missing row %s in:\n%s", name, got)
		}
	}
	for _, name := range core.PaperDatasetNames() {
		if !strings.Contains(got, name) {
			t.Fatalf("missing column %s", name)
		}
	}
	if !strings.Contains(got, "100.0") || !strings.Contains(got, "1200.0") {
		t.Fatalf("missing values:\n%s", got)
	}
}

func TestGridMissingCell(t *testing.T) {
	var sb strings.Builder
	Grid(&sb, nil, ResponseTime, []string{"JobLocal"}, []string{"DataRandom"}, 10)
	if !strings.Contains(sb.String(), "-") {
		t.Fatalf("missing cells should render '-': %q", sb.String())
	}
}

func TestMetricsSelection(t *testing.T) {
	rs := fakeResults()
	var a, b, c strings.Builder
	Grid(&a, rs, ResponseTime, []string{"JobRandom"}, []string{"DataDoNothing"}, 10)
	Grid(&b, rs, DataTransferred, []string{"JobRandom"}, []string{"DataDoNothing"}, 10)
	Grid(&c, rs, IdleTime, []string{"JobRandom"}, []string{"DataDoNothing"}, 10)
	if !strings.Contains(a.String(), "100.0") {
		t.Fatalf("response: %q", a.String())
	}
	if !strings.Contains(b.String(), "50.0") {
		t.Fatalf("data: %q", b.String())
	}
	if !strings.Contains(c.String(), "50.0") {
		t.Fatalf("idle pct: %q", c.String())
	}
}

func TestBandwidths(t *testing.T) {
	rs := fakeResults()
	// Add a 100 MB/s cell.
	rs = append(rs, experiments.CellResult{
		Cell:           experiments.Cell{ES: "JobLocal", DS: "DataDoNothing", BandwidthMBps: 100},
		AvgResponseSec: 42,
		Runs:           []core.Results{{}},
	})
	var sb strings.Builder
	Bandwidths(&sb, rs, []string{"JobLocal"}, "DataDoNothing", []float64{10, 100})
	got := sb.String()
	if !strings.Contains(got, "42.0") {
		t.Fatalf("missing 100MB/s value:\n%s", got)
	}
}

func TestMarkdownGrid(t *testing.T) {
	var sb strings.Builder
	MarkdownGrid(&sb, fakeResults(), ResponseTime, core.PaperExternalNames(), core.PaperDatasetNames(), 10)
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 6 { // header + separator + 4 ES rows
		t.Fatalf("lines = %d:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[1], "|---|") {
		t.Fatalf("separator = %q", lines[1])
	}
	if !strings.Contains(lines[2], "| JobRandom | 100.0 |") {
		t.Fatalf("row = %q", lines[2])
	}
	// Missing cells render an en dash.
	sb.Reset()
	MarkdownGrid(&sb, nil, ResponseTime, []string{"JobLocal"}, []string{"DataRandom"}, 10)
	if !strings.Contains(sb.String(), "–") {
		t.Fatalf("missing cell marker absent: %q", sb.String())
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	CSV(&sb, fakeResults())
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 13 { // header + 12 cells
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "es,ds,bandwidth_mbps") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "JobRandom,DataDoNothing,10,0,1,100.00") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestHistogram(t *testing.T) {
	var sb strings.Builder
	Histogram(&sb, []int{100, 50, 25, 0}, 4, 20)
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], strings.Repeat("#", 20)) {
		t.Fatalf("peak bar wrong: %q", lines[0])
	}
	if strings.Contains(lines[3], "#") {
		t.Fatalf("zero row has bars: %q", lines[3])
	}
}

func TestHistogramEmpty(t *testing.T) {
	var sb strings.Builder
	Histogram(&sb, []int{0, 0}, 5, 10)
	if !strings.Contains(sb.String(), "no requests") {
		t.Fatalf("empty histogram output: %q", sb.String())
	}
}

// TestResponseHistogramGolden pins the run-level response histogram
// rendering used by `chicsim -hist`.
func TestResponseHistogramGolden(t *testing.T) {
	var sb strings.Builder
	counts := []int{3, 6, 1}
	edges := []float64{0, 100, 200, 300}
	ResponseHistogram(&sb, counts, edges, 12)
	want := "response time (s)        jobs\n" +
		"       0-100               3 ######\n" +
		"     100-200               6 ############\n" +
		"     200-300               1 ##\n"
	if sb.String() != want {
		t.Fatalf("histogram golden mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}

	sb.Reset()
	ResponseHistogram(&sb, nil, nil, 12)
	if !strings.Contains(sb.String(), "no response histogram") {
		t.Fatalf("empty histogram = %q", sb.String())
	}
	sb.Reset()
	ResponseHistogram(&sb, []int{0, 0}, []float64{0, 1, 2}, 12)
	if !strings.Contains(sb.String(), "no completed jobs") {
		t.Fatalf("all-zero histogram = %q", sb.String())
	}
}

func TestCSVErrorRow(t *testing.T) {
	rs := []experiments.CellResult{{
		Cell: experiments.Cell{ES: "JobBogus", DS: "DataRandom", BandwidthMBps: 10},
		Err:  errFake{},
	}}
	var sb strings.Builder
	CSV(&sb, rs)
	if !strings.Contains(sb.String(), "error") {
		t.Fatalf("error row missing: %q", sb.String())
	}
}

type errFake struct{}

func (errFake) Error() string { return "boom" }

func TestGridSkipsErrorCells(t *testing.T) {
	rs := []experiments.CellResult{{
		Cell: experiments.Cell{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10},
		Err:  errFake{},
	}}
	var sb strings.Builder
	Grid(&sb, rs, ResponseTime, []string{"JobRandom"}, []string{"DataRandom"}, 10)
	if !strings.Contains(sb.String(), "-") {
		t.Fatalf("error cell should render '-': %q", sb.String())
	}
}

// occupancySeries builds a probe series shaped like core's: the
// grid-wide jobs_queued and inflight_transfers gauges, then one
// sNN.cpu_util gauge per site, with busy[k] the per-site values at t[k].
func occupancySeries(t []float64, busy [][]float64, queued, flows []float64) *obs.Series {
	s := &obs.Series{Names: []string{"jobs_queued", "inflight_transfers"}}
	for i := range busy[0] {
		s.Names = append(s.Names, fmt.Sprintf("s%02d.cpu_util", i))
	}
	s.Kinds = make([]obs.Kind, len(s.Names))
	for k := range t {
		vals := append([]float64{queued[k], flows[k]}, busy[k]...)
		s.Points = append(s.Points, obs.Point{T: t[k], Values: vals})
	}
	return s
}

func TestHeatmapAndTimeline(t *testing.T) {
	series := occupancySeries([]float64{60, 120},
		[][]float64{{0, 1}, {0.5, 1}}, []float64{3, 7}, []float64{2, 1})
	var sb strings.Builder
	Heatmap(&sb, series, 80)
	got := sb.String()
	if !strings.Contains(got, "2 sites × 2 samples (t=60..120 s)") {
		t.Fatalf("header wrong:\n%s", got)
	}
	if !strings.Contains(got, "s0") || !strings.Contains(got, "s1") {
		t.Fatalf("missing site rows:\n%s", got)
	}
	if !strings.Contains(got, "@@") {
		t.Fatalf("fully busy site not rendered dark:\n%s", got)
	}
	sb.Reset()
	Timeline(&sb, series, 80)
	if !strings.Contains(sb.String(), "peak queued jobs: 7") ||
		!strings.Contains(sb.String(), "peak concurrent transfers: 2") {
		t.Fatalf("timeline peaks wrong:\n%s", sb.String())
	}
}

func TestHeatmapDownsamples(t *testing.T) {
	var ts, zero []float64
	var busy [][]float64
	for i := 0; i < 500; i++ {
		ts = append(ts, float64(i))
		busy = append(busy, []float64{0.5})
		zero = append(zero, 0)
	}
	var sb strings.Builder
	Heatmap(&sb, occupancySeries(ts, busy, zero, zero), 50)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	row := lines[1]
	if len(row) > 60 {
		t.Fatalf("row not downsampled: %d chars", len(row))
	}
}

func TestHeatmapEmpty(t *testing.T) {
	for _, s := range []*obs.Series{nil, {}, {Names: []string{"jobs_queued"}, Points: []obs.Point{{T: 60, Values: []float64{1}}}}} {
		var sb strings.Builder
		Heatmap(&sb, s, 80)
		Timeline(&sb, s, 80)
		if strings.Count(sb.String(), "no samples") != 2 {
			t.Fatalf("empty-sample hint missing for %+v: %q", s, sb.String())
		}
	}
}

func TestSignificance(t *testing.T) {
	mk := func(cell experiments.Cell, vals ...float64) experiments.CellResult {
		cr := experiments.CellResult{Cell: cell}
		for i, v := range vals {
			cr.Runs = append(cr.Runs, core.Results{
				Results: metrics.Results{AvgResponseSec: v},
				Seed:    uint64(i + 1),
			})
		}
		return cr
	}
	a := experiments.Cell{ES: "JobDataPresent", DS: "DataRandom", BandwidthMBps: 10}
	b := experiments.Cell{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10}
	results := []experiments.CellResult{
		mk(a, 520, 530, 525),
		mk(b, 515, 528, 522),
	}
	var sb strings.Builder
	Significance(&sb, results, a, b)
	if !strings.Contains(sb.String(), "NO significant difference") {
		t.Fatalf("overlapping samples flagged: %s", sb.String())
	}
	sb.Reset()
	results[1] = mk(b, 100, 102, 101)
	Significance(&sb, results, a, b)
	if !strings.Contains(sb.String(), "SIGNIFICANT difference") {
		t.Fatalf("distinct samples not flagged: %s", sb.String())
	}
	sb.Reset()
	Significance(&sb, results, a, experiments.Cell{ES: "Nope"})
	if !strings.Contains(sb.String(), "not present") {
		t.Fatalf("missing-cell case: %s", sb.String())
	}
}

func TestMetricString(t *testing.T) {
	if ResponseTime.String() == "" || DataTransferred.String() == "" || IdleTime.String() == "" {
		t.Fatal("metric strings empty")
	}
}

// TestAblations pins the seed-paired report on synthetic cells: each
// delta is stats.Summarize of the arm's per-seed differences from the
// control, runs pair on Results.Seed whatever order they come in, an
// interval that spans zero reads "no detectable effect", and an arm
// with under two paired seeds, or no result, prints "-".
func TestAblations(t *testing.T) {
	cell := func(ds string) experiments.Cell {
		return experiments.Cell{ES: "JobDataPresent", DS: ds, BandwidthMBps: 10}
	}
	mk := func(c experiments.Cell, respBySeed ...float64) experiments.CellResult {
		cr := experiments.CellResult{Cell: c}
		for i := 0; i < len(respBySeed); i += 2 {
			cr.Runs = append(cr.Runs, core.Results{
				Results: metrics.Results{AvgResponseSec: respBySeed[i+1]},
				Seed:    uint64(respBySeed[i]),
			})
		}
		cr.AvgResponseSec = stats.Mean(cr.ResponseSamples())
		return cr
	}
	control := mk(cell("DataLeastLoaded"), 1, 100, 2, 110, 3, 90)
	clear := mk(cell("DataRandom"), 3, 125, 1, 130, 2, 145)    // +35, +30, +35
	noisy := mk(cell("DataCascade"), 1, 150, 2, 60, 3, 100)    // +50, -50, +10
	lonely := mk(cell("DataBestClient"), 1, 120, 4, 200, 5, 1) // one seed pairs
	results := []experiments.CellResult{control, clear, noisy, lonely}
	abl := []experiments.Ablation{{Name: "ds", Arms: []experiments.Cell{
		control.Cell, clear.Cell, noisy.Cell, lonely.Cell, cell("DataFeedback"),
	}}}

	for _, c := range []struct {
		arm   *experiments.CellResult
		diffs []float64
	}{{&clear, []float64{35, 30, 35}}, {&noisy, []float64{50, -50, 10}}} {
		if got, want := experiments.PairedResponseDelta(&control, c.arm), stats.Summarize(c.diffs); got != want {
			t.Errorf("%v: paired delta %+v, want %+v", c.arm.Cell, got, want)
		}
	}

	var sb strings.Builder
	Ablations(&sb, results, abl)
	want := `ds, control JobDataPresent+DataLeastLoaded@10MB/s
  arm                                     resp (s)  Δ resp (s), 95% CI        Δ
  JobDataPresent+DataLeastLoaded@10MB/s      100.0  control
  JobDataPresent+DataRandom@10MB/s           133.3     +33.3 ± 7.2       +33.3%
  JobDataPresent+DataCascade@10MB/s          103.3      +3.3 ± 125.0      +3.3%  no detectable effect
  JobDataPresent+DataBestClient@10MB/s       107.0  -
  JobDataPresent+DataFeedback@10MB/s             -
`
	if sb.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestAblationLabelsNamePairs checks that every arm of a study whose arms
// vary the scheduler pair, the control included, is labelled by its pair
// (the feedback studies' control once read "staleness=120"), and that an
// arm of any other study is labelled against the control alone.
func TestAblationLabelsNamePairs(t *testing.T) {
	controls := make(map[string]string)
	for _, a := range experiments.Ablations() {
		control := a.Arms[0]
		varies := false
		for _, arm := range a.Arms {
			varies = varies || arm.ES != control.ES || arm.DS != control.DS
		}
		for _, arm := range a.Arms {
			want := armLabel(arm, []experiments.Cell{control, arm})
			if varies {
				want = fmt.Sprintf("%s+%s@%gMB/s", arm.ES, arm.DS, arm.BandwidthMBps)
			}
			if got := armLabel(arm, a.Arms); got != want {
				t.Errorf("%s: arm %v labelled %q, want %q", a.Name, arm, got, want)
			}
		}
		controls[a.Name] = armLabel(control, a.Arms)
	}
	for _, name := range []string{"feedback", "feedback-crashes"} {
		if got := controls[name]; got != "JobDataPresent+DataLeastLoaded@10MB/s" {
			t.Errorf("%s control labelled %q, want JobDataPresent+DataLeastLoaded@10MB/s", name, got)
		}
	}
}

// TestAblationLabelsUnique checks that no study of experiments.Ablations
// gives two arms the same label, and that an arm whose runs abandoned
// jobs reports the total over its seeds.
func TestAblationLabelsUnique(t *testing.T) {
	for _, a := range experiments.Ablations() {
		seen := make(map[string]bool)
		for _, arm := range a.Arms {
			label := armLabel(arm, a.Arms)
			if seen[label] {
				t.Errorf("%s: two arms labelled %q", a.Name, label)
			}
			seen[label] = true
		}
	}

	control := experiments.Cell{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10}
	crashed := control
	crashed.SiteMTBF = 3600
	mk := func(c experiments.Cell, failed ...int) experiments.CellResult {
		cr := experiments.CellResult{Cell: c, AvgResponseSec: 100}
		for i, f := range failed {
			cr.Runs = append(cr.Runs, core.Results{
				Results:    metrics.Results{AvgResponseSec: 100},
				Seed:       uint64(i + 1),
				JobsFailed: f,
			})
		}
		return cr
	}
	var sb strings.Builder
	Ablations(&sb, []experiments.CellResult{mk(control, 0, 0), mk(crashed, 3, 4)},
		[]experiments.Ablation{{Name: "crashes", Arms: []experiments.Cell{control, crashed}}})
	want := `crashes, control JobRandom+DataRandom@10MB/s
  arm                                     resp (s)  Δ resp (s), 95% CI        Δ
  JobRandom+DataRandom@10MB/s                100.0  control
  site-mtbf=3600s                            100.0      +0.0 ± 0.0        +0.0%  no detectable effect  7 jobs abandoned
`
	if sb.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", sb.String(), want)
	}
}
