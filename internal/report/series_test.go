package report

import (
	"strings"
	"testing"

	"chicsim/internal/obs"
)

func sampleSeries() *obs.Series {
	return &obs.Series{
		Names: []string{"queue", "done"},
		Kinds: []obs.Kind{obs.GaugeKind, obs.CounterKind},
		Points: []obs.Point{
			{T: 60, Values: []float64{4, 0}},
			{T: 120, Values: []float64{1.5, 6}},
		},
	}
}

func TestSeriesCSV(t *testing.T) {
	var sb strings.Builder
	SeriesCSV(&sb, sampleSeries())
	want := "t,queue,done\n60,4,0\n120,1.5,6\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}

	sb.Reset()
	SeriesCSV(&sb, nil)
	if !strings.Contains(sb.String(), "no series") {
		t.Fatalf("nil series CSV = %q", sb.String())
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
