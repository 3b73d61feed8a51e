package metrics

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/stats"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

func doneJob(id job.ID, submit, start, end float64) *job.Job {
	j := job.New(id, 0, 0, []storage.FileID{1}, end-start)
	j.Advance(job.Submitted, submit)
	j.Advance(job.Queued, submit)
	j.Advance(job.Running, start)
	j.Advance(job.Done, end)
	return j
}

func TestJobDoneAndSummarize(t *testing.T) {
	c := NewCollector(3)
	c.JobDone(doneJob(1, 0, 10, 110))  // response 110
	c.JobDone(doneJob(2, 50, 60, 160)) // response 110
	c.JobDone(doneJob(3, 0, 0, 400))   // response 400
	c.Transfer(FetchTransfer, 300e6)
	c.Transfer(ReplicationTransfer, 600e6)

	// Busy integral: 3 CEs over makespan 400, busy 300 CE-seconds.
	r := c.Summarize(300, 3)
	if r.JobsDone != 3 {
		t.Fatalf("JobsDone = %d", r.JobsDone)
	}
	if r.Makespan != 400 {
		t.Fatalf("Makespan = %v", r.Makespan)
	}
	want := (110.0 + 110 + 400) / 3
	if math.Abs(r.AvgResponseSec-want) > 1e-9 {
		t.Fatalf("AvgResponse = %v, want %v", r.AvgResponseSec, want)
	}
	if r.MedResponseSec != 110 {
		t.Fatalf("Median = %v", r.MedResponseSec)
	}
	if r.P95ResponseSec != 400 {
		t.Fatalf("P95 = %v", r.P95ResponseSec)
	}
	if math.Abs(r.AvgDataPerJobMB-300) > 1e-9 {
		t.Fatalf("AvgData = %v, want 300", r.AvgDataPerJobMB)
	}
	if math.Abs(r.FetchMBPerJob-100) > 1e-9 || math.Abs(r.ReplMBPerJob-200) > 1e-9 {
		t.Fatalf("split = %v/%v", r.FetchMBPerJob, r.ReplMBPerJob)
	}
	// Idle: 1 - 300/(3*400) = 0.75.
	if math.Abs(r.IdleFrac-0.75) > 1e-9 {
		t.Fatalf("IdleFrac = %v", r.IdleFrac)
	}
	if r.FetchCount != 1 || r.ReplCount != 1 {
		t.Fatalf("counts = %d/%d", r.FetchCount, r.ReplCount)
	}
}

func TestEmptyCollector(t *testing.T) {
	r := NewCollector(0).Summarize(0, 10)
	if r.JobsDone != 0 || r.AvgResponseSec != 0 || r.IdleFrac != 0 {
		t.Fatalf("empty results = %+v", r)
	}
}

func TestJobDonePanicsOnUnfinished(t *testing.T) {
	c := NewCollector(1)
	j := job.New(1, 0, 0, nil, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.JobDone(j)
}

func TestIdleClamped(t *testing.T) {
	c := NewCollector(1)
	c.JobDone(doneJob(1, 0, 0, 100))
	// Busy integral exceeding capacity (numeric excursion) clamps to 0.
	r := c.Summarize(1e9, 1)
	if r.IdleFrac != 0 {
		t.Fatalf("IdleFrac = %v, want clamp to 0", r.IdleFrac)
	}
}

// percentile returns the p-quantile of sorted xs by nearest-rank: the
// sort-based reference the collector's selection must reproduce.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(xs, 0.95); got != 10 {
		t.Fatalf("p95 = %v", got)
	}
	if got := percentile(xs, 0.01); got != 1 {
		t.Fatalf("p1 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestRecordFields(t *testing.T) {
	c := NewBounded(rng.New(1))
	j := job.New(7, 3, 2, []storage.FileID{1}, 50)
	j.Advance(job.Submitted, 5)
	j.Advance(job.Queued, 6)
	j.Advance(job.Running, 10)
	j.Advance(job.Done, 60)
	j.Site = 4
	c.JobDone(j)
	ex := c.Summarize(0, 1).Exemplars
	if len(ex) != 1 {
		t.Fatalf("exemplars = %d, want the one completed job", len(ex))
	}
	rec := ex[0]
	if rec.ID != 7 || rec.User != 3 || rec.Origin != 2 || rec.Site != 4 {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Response() != 55 {
		t.Fatalf("Response = %v", rec.Response())
	}
}

// fillBoth feeds the same synthetic completion stream to a full and a
// bounded collector and returns both summaries.
func fillBoth(t *testing.T, n int) (full, bounded Results) {
	t.Helper()
	feed := func(c *Collector) Results {
		src := rng.New(99)
		for i := 0; i < n; i++ {
			submit := float64(i)
			start := submit + src.Range(1, 50)
			end := start + src.Range(10, 500)
			j := doneJob(job.ID(i), submit, start, end)
			j.Site = topology.SiteID(i % 5)
			c.JobDone(j)
		}
		c.Transfer(FetchTransfer, 250e6)
		c.Transfer(ReplicationTransfer, 100e6)
		return c.Summarize(float64(n)*20, 8)
	}
	full = feed(NewCollector(n))
	bounded = feed(NewBounded(rng.New(99).Derive("results")))
	return full, bounded
}

func TestBoundedExactFieldsMatchFull(t *testing.T) {
	full, bounded := fillBoth(t, 500)
	if bounded.ResultMode != "bounded" || full.ResultMode != "" {
		t.Fatalf("ResultMode = %q / %q", full.ResultMode, bounded.ResultMode)
	}
	// Every exact field must match to the bit.
	pairs := [][2]float64{
		{full.Makespan, bounded.Makespan},
		{full.AvgResponseSec, bounded.AvgResponseSec},
		{full.MinResponseSec, bounded.MinResponseSec},
		{full.MaxResponseSec, bounded.MaxResponseSec},
		{full.AvgQueueWait, bounded.AvgQueueWait},
		{full.AvgDispatchWaitSec, bounded.AvgDispatchWaitSec},
		{full.AvgDataWaitSec, bounded.AvgDataWaitSec},
		{full.AvgCPUWaitSec, bounded.AvgCPUWaitSec},
		{full.AvgExecSec, bounded.AvgExecSec},
		{full.AvgDataPerJobMB, bounded.AvgDataPerJobMB},
		{full.IdleFrac, bounded.IdleFrac},
	}
	for i, p := range pairs {
		if p[0] != p[1] {
			t.Errorf("exact field %d differs: full %v, bounded %v", i, p[0], p[1])
		}
	}
	if full.JobsDone != bounded.JobsDone || full.FetchCount != bounded.FetchCount {
		t.Fatal("count fields differ")
	}
	// Quantiles are approximate but bounded by the documented error.
	for _, q := range [][2]float64{
		{full.MedResponseSec, bounded.MedResponseSec},
		{full.P95ResponseSec, bounded.P95ResponseSec},
	} {
		if rel := math.Abs(q[1]-q[0]) / q[0]; rel > bounded.RespQuantileRelErr {
			t.Errorf("quantile error %v exceeds bound %v (full %v, bounded %v)",
				rel, bounded.RespQuantileRelErr, q[0], q[1])
		}
	}
}

func TestBoundedSketchOutputs(t *testing.T) {
	_, bounded := fillBoth(t, 500)
	if len(bounded.Exemplars) != ExemplarK {
		t.Fatalf("exemplars = %d, want %d", len(bounded.Exemplars), ExemplarK)
	}
	if len(bounded.TopSites) != 5 {
		t.Fatalf("top sites = %d, want 5 distinct", len(bounded.TopSites))
	}
	// 500 jobs round-robined over 5 sites: each site exactly 100.
	for _, s := range bounded.TopSites {
		if s.Count != 100 {
			t.Fatalf("site count inexact: %+v", s)
		}
	}
	if len(bounded.TopDatasets) == 0 || bounded.TopDatasets[0].Key != 1 {
		t.Fatalf("datasets = %+v (every job reads file 1)", bounded.TopDatasets)
	}
	if bounded.RespHistCounts == nil || len(bounded.RespHistCounts) != RespHistBins {
		t.Fatalf("hist bins = %v", bounded.RespHistCounts)
	}
	total := 0
	for _, c := range bounded.RespHistCounts {
		total += c
	}
	if total != 500 {
		t.Fatalf("hist total = %d", total)
	}
}

// TestHotItemsExactWhenUnderCapacity checks that hot items carry exact
// counts in count-descending order, at most k of them, zero counts left out.
func TestHotItemsExactWhenUnderCapacity(t *testing.T) {
	counts := make([]float64, 8)
	for key := 0; key < 5; key++ {
		counts[key] = float64(key + 1)
	}
	got := hottest(counts, 3)
	want := []HotItem{{4, 5}, {3, 4}, {2, 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("hottest = %v, want %v", got, want)
	}
	if got := hottest(counts, 16); len(got) != 5 {
		t.Fatalf("hottest of 5 nonzero counts = %v, want 5 items", got)
	}
	if got := hottest(make([]float64, 5), 16); got != nil {
		t.Fatalf("hottest of zero counts = %v, want nil", got)
	}
}

// TestHotItemsDeterministicTieBreak checks that equal counts rank by key
// ascending, whatever order the keys were counted in.
func TestHotItemsDeterministicTieBreak(t *testing.T) {
	counts := make([]float64, 10)
	for _, key := range []int{5, 3, 9, 1, 8, 2, 5, 3} {
		counts[key]++
	}
	got := hottest(counts, 3)
	want := []HotItem{{3, 2}, {5, 2}, {1, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("hottest = %v, want %v", got, want)
	}
	counts = make([]float64, 9)
	counts[3], counts[8], counts[5], counts[2] = 2, 2, 2, 1
	got = hottest(counts, 16)
	want = []HotItem{{3, 2}, {5, 2}, {8, 2}, {2, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("hottest = %v, want %v", got, want)
	}
}

// TestHotItemsHeavyHitterAmongOneOffs checks that a heavy key among many
// one-off keys ranks first with its exact count, followed by ties by key.
func TestHotItemsHeavyHitterAmongOneOffs(t *testing.T) {
	counts := make([]float64, 1200)
	counts[3], counts[8], counts[5], counts[2] = 2, 2, 2, 1
	counts[1100] = 400
	for key := 10; key < 1000; key++ {
		counts[key] = 1
	}
	got := hottest(counts, 6)
	want := []HotItem{{1100, 400}, {3, 2}, {5, 2}, {8, 2}, {2, 1}, {10, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("hottest = %v, want %v", got, want)
	}
}

func TestBoundedExemplarsDeterministic(t *testing.T) {
	_, a := fillBoth(t, 300)
	_, b := fillBoth(t, 300)
	if len(a.Exemplars) != len(b.Exemplars) {
		t.Fatal("exemplar counts differ")
	}
	for i := range a.Exemplars {
		if a.Exemplars[i] != b.Exemplars[i] {
			t.Fatalf("exemplar %d diverged between identical runs", i)
		}
	}
}

func TestBoundedRecordsNil(t *testing.T) {
	c := NewBounded(rng.New(1))
	c.JobDone(doneJob(1, 0, 10, 20))
	if c.responses != nil {
		t.Fatal("bounded collector kept response times")
	}
	if !c.Bounded() {
		t.Fatal("Bounded() = false")
	}
	if c.JobsDone() != 1 {
		t.Fatalf("JobsDone = %d", c.JobsDone())
	}
}

func TestSiteJobCountsPadded(t *testing.T) {
	c := NewCollector(1)
	j := doneJob(1, 0, 5, 10)
	j.Site = 2
	c.JobDone(j)
	got := c.SiteJobCounts(6)
	want := []float64{0, 0, 1, 0, 0, 0}
	if len(got) != 6 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v", got)
		}
	}
}

func TestTransferPanicsOnUnknownPurpose(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCollector(0).Transfer(TransferPurpose(9), 1)
}

// TestQuantilesMatchSortReference checks that full mode's selection-based
// median, P95 and histogram are bit-identical to sorting the responses and
// reading the nearest ranks, on random slices with and without ties and at
// the smallest sizes, and that summarizing twice gives the same Results.
func TestQuantilesMatchSortReference(t *testing.T) {
	src := rng.New(31)
	cases := map[string][]float64{
		"n=1":       {42},
		"n=2":       {7, 3},
		"n=3":       {5, 1, 5},
		"all equal": make([]float64, 97),
	}
	for i := range cases["all equal"] {
		cases["all equal"][i] = 120
	}
	for _, n := range []int{4, 5, 19, 20, 21, 100, 1000, 6000} {
		distinct := make([]float64, n)
		ties := make([]float64, n)
		for i := range distinct {
			distinct[i] = src.Range(60, 5000)
			ties[i] = float64(src.Intn(7)) * 60 // few values, many ties
		}
		cases[fmt.Sprintf("distinct n=%d", n)] = distinct
		cases[fmt.Sprintf("ties n=%d", n)] = ties
	}
	// An ascending and a descending run: no pivot luck.
	up, down := make([]float64, 2048), make([]float64, 2048)
	for i := range up {
		up[i], down[len(down)-1-i] = float64(i), float64(i)
	}
	cases["ascending"], cases["descending"] = up, down
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) {
			c := NewCollector(len(resp))
			for i, r := range resp {
				c.JobDone(doneJob(job.ID(i), 0, 0, r))
			}
			got := c.Summarize(0, 1)

			sorted := slices.Clone(resp)
			sort.Float64s(sorted)
			if med := percentile(sorted, 0.5); got.MedResponseSec != med {
				t.Errorf("median = %v, sorted reference %v", got.MedResponseSec, med)
			}
			if p95 := percentile(sorted, 0.95); got.P95ResponseSec != p95 {
				t.Errorf("P95 = %v, sorted reference %v", got.P95ResponseSec, p95)
			}
			counts, edges := stats.Histogram(sorted, RespHistBins)
			if !slices.Equal(got.RespHistCounts, counts) || !slices.Equal(got.RespHistEdges, edges) {
				t.Errorf("histogram = %v %v, sorted reference %v %v",
					got.RespHistCounts, got.RespHistEdges, counts, edges)
			}
			if again := c.Summarize(0, 1); !reflect.DeepEqual(again, got) {
				t.Errorf("second Summarize differs:\n%+v\n%+v", again, got)
			}
		})
	}
}

// TestFullCollectorAllocatesOnce checks that a full collector built with
// the run's job count allocates its response buffer once, at the first
// completion, and never grows it.
func TestFullCollectorAllocatesOnce(t *testing.T) {
	const n = 5000
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = doneJob(job.ID(i), float64(i), float64(i)+1, float64(i)+60)
	}
	allocs := testing.AllocsPerRun(5, func() {
		c := NewCollector(n)
		for _, j := range jobs {
			c.JobDone(j)
		}
		if c.JobsDone() != n {
			t.Fatalf("JobsDone = %d", c.JobsDone())
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations for %d completions, want 1", allocs, n)
	}
}
