// Package metrics collects the per-job and per-grid measurements the paper
// reports: average job completion (response) time, average data transferred
// per job, and average processor idle time (§5.2), plus supporting detail
// (queue waits, transfer split by cause, makespan, percentiles).
//
// The Collector runs in one of two modes. Full mode (NewCollector) keeps
// one response time per completed job — 8 bytes a job, in one buffer sized
// for the whole run — and computes the exact median, P95 and histogram from
// them. Bounded mode (NewBounded) replaces that buffer with the
// constant-memory aggregators in metrics/stream (a log-bucketed histogram
// for quantiles and a seeded reservoir of exemplar rows) and ranks the
// hottest sites and datasets from exact per-site and per-file job counts,
// O(sites + files) memory. Every exact aggregate
// (counts, sums, means, min/max, makespan, transfer counters) is
// accumulated identically — same floating-point operations in the same
// completion order — so the exact fields of Results are byte-identical
// between the two modes; only quantile-shaped fields (median, P95,
// histogram bins) come from the sketch in bounded mode.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"chicsim/internal/desim"
	"chicsim/internal/job"
	"chicsim/internal/metrics/stream"
	"chicsim/internal/rng"
	"chicsim/internal/stats"
)

// RespHistBins is the bin count of the response-time histogram attached
// to Results (equal-width over the observed range; see stats.Histogram).
const RespHistBins = 12

// ExemplarK is how many exemplar job rows bounded mode samples uniformly
// from the completion stream (Vitter reservoir; deterministic for a given
// seed regardless of worker count).
const ExemplarK = 64

// HotReportK is how many of the hottest sites and datasets Results reports.
const HotReportK = 16

// HotItem is one reported hot site or dataset and its exact count of
// completed jobs.
type HotItem struct {
	Key   int
	Count int
}

// TransferPurpose labels why bytes moved.
type TransferPurpose int

const (
	// FetchTransfer is a job-driven input fetch (coupled data movement).
	FetchTransfer TransferPurpose = iota
	// ReplicationTransfer is an asynchronous DS push (decoupled movement).
	ReplicationTransfer
	// OutputTransfer ships a job's output back to its submitting site
	// (the output-cost extension; zero in the paper's configuration).
	OutputTransfer
)

// JobRecord is the completed-job measurement row: the exemplar row bounded
// mode samples.
type JobRecord struct {
	ID          job.ID
	User        job.UserID
	Origin      int
	Site        int
	Submit      desim.Time
	Dispatch    desim.Time
	DataReady   desim.Time
	Start       desim.Time
	End         desim.Time
	ComputeTime float64
}

// Response returns End − Submit.
func (r JobRecord) Response() float64 { return r.End - r.Submit }

// Decomposition splits one job's response time into the four disjoint
// phases of its lifecycle. The phases tile [Submit, End] exactly:
//
//	Response = DispatchWait + DataWait + CPUWait + Exec
//
// DispatchWait covers submit→(final) dispatch: zero in the paper's online
// model, the buffering window under batch scheduling, and failed attempts
// plus backoff on faulted runs — the "retry share". DataWait is
// dispatch→data-ready (the coupled transfer the paper's DS tries to
// hide), CPUWait is data-ready→start (waiting for a free compute element
// with data already in hand), and Exec is start→end.
type Decomposition struct {
	DispatchWait float64
	DataWait     float64
	CPUWait      float64
	Exec         float64
}

// Sum returns the total of the four phases (= the job's response time).
func (d Decomposition) Sum() float64 {
	return d.DispatchWait + d.DataWait + d.CPUWait + d.Exec
}

// Decompose returns the record's response-time decomposition. A record
// without a data-ready timestamp (defensive; completed jobs always have
// one) charges the whole wait to DataWait.
func (r JobRecord) Decompose() Decomposition {
	ready := r.DataReady
	if ready < 0 {
		ready = r.Start
	}
	return Decomposition{
		DispatchWait: r.Dispatch - r.Submit,
		DataWait:     ready - r.Dispatch,
		CPUWait:      r.Start - ready,
		Exec:         r.End - r.Start,
	}
}

// Collector accumulates measurements during a run.
type Collector struct {
	bounded bool

	// Exact aggregates, streamed in completion order by JobDone. Both
	// modes run the identical accumulation code, which is what makes the
	// exact Results fields byte-identical between them.
	jobs        int
	respSum     float64
	queueSum    float64
	dispatchSum float64
	dataSum     float64
	cpuSum      float64
	execSum     float64
	makespan    float64
	respMin     float64
	respMax     float64
	siteJobs    []float64

	// Full mode: every response time (the exact quantiles and histogram
	// need nothing else). Sized at the first completion with room for the
	// expected jobs, so the run appends without growing it.
	responses    []float64
	expectedJobs int

	// Bounded mode: constant-memory sketches standing in for the rows,
	// and the completed jobs that read each file, by FileID.
	hist      *stream.Histogram
	exemplars *stream.Reservoir[JobRecord]
	fileJobs  []float64

	fetchBytes  float64
	replBytes   float64
	outputBytes float64
	fetchCount  int
	replCount   int
	outputCount int
}

// NewCollector returns an empty full-mode collector that keeps one
// response time per completed job. jobs is how many jobs the run will
// complete at most; the buffer is sized for it at the first completion.
func NewCollector(jobs int) *Collector {
	c := new(Collector)
	c.Reset(jobs)
	return c
}

// Reset makes c the empty full-mode collector NewCollector(jobs) would
// return, keeping its response buffer and per-site counts' arrays for
// the next run to fill. Results it summarized before share no memory
// with it.
func (c *Collector) Reset(jobs int) {
	*c = Collector{expectedJobs: jobs, responses: c.responses[:0], siteJobs: c.siteJobs[:0]}
}

// NewBounded returns a bounded-mode collector whose memory is independent
// of how many jobs complete. src seeds the exemplar reservoir; pass a
// dedicated sub-stream (e.g. root.Derive("results")) so sampling never
// perturbs the simulation's own randomness.
func NewBounded(src *rng.Source) *Collector {
	return &Collector{
		bounded:   true,
		hist:      stream.NewHistogram(),
		exemplars: stream.NewReservoir[JobRecord](ExemplarK, src),
	}
}

// Bounded reports whether the collector runs in bounded (constant-memory)
// mode.
func (c *Collector) Bounded() bool { return c.bounded }

// JobDone records a completed job.
func (c *Collector) JobDone(j *job.Job) {
	if j.State != job.Done {
		panic(fmt.Sprintf("metrics: JobDone for job %d in state %v", j.ID, j.State))
	}
	rec := JobRecord{
		ID:          j.ID,
		User:        j.User,
		Origin:      int(j.Origin),
		Site:        int(j.Site),
		Submit:      j.SubmitTime,
		Dispatch:    j.DispatchTime,
		DataReady:   j.DataReady,
		Start:       j.StartTime,
		End:         j.EndTime,
		ComputeTime: j.ComputeTime,
	}

	resp := rec.Response()
	if c.jobs == 0 || resp < c.respMin {
		c.respMin = resp
	}
	if c.jobs == 0 || resp > c.respMax {
		c.respMax = resp
	}
	c.jobs++
	c.respSum += resp
	c.queueSum += rec.Start - rec.Dispatch
	d := rec.Decompose()
	c.dispatchSum += d.DispatchWait
	c.dataSum += d.DataWait
	c.cpuSum += d.CPUWait
	c.execSum += d.Exec
	if rec.End > c.makespan {
		c.makespan = rec.End
	}
	if rec.Site >= 0 { // defensive: simulator jobs always have a site by Done
		for len(c.siteJobs) <= rec.Site {
			c.siteJobs = append(c.siteJobs, 0)
		}
		c.siteJobs[rec.Site]++
	}

	if !c.bounded {
		if len(c.responses) == 0 && cap(c.responses) < c.expectedJobs {
			c.responses = make([]float64, 0, c.expectedJobs)
		}
		c.responses = append(c.responses, resp)
		return
	}
	c.hist.Observe(resp)
	c.exemplars.Add(rec)
	for _, f := range j.Inputs {
		for len(c.fileJobs) <= int(f) {
			c.fileJobs = append(c.fileJobs, 0)
		}
		c.fileJobs[f]++
	}
}

// Transfer records bytes moved for the given purpose.
func (c *Collector) Transfer(p TransferPurpose, bytes float64) {
	switch p {
	case FetchTransfer:
		c.fetchBytes += bytes
		c.fetchCount++
	case ReplicationTransfer:
		c.replBytes += bytes
		c.replCount++
	case OutputTransfer:
		c.outputBytes += bytes
		c.outputCount++
	default:
		panic("metrics: unknown transfer purpose")
	}
}

// JobsDone returns the number of completed jobs recorded.
func (c *Collector) JobsDone() int { return c.jobs }

// SiteJobCounts returns per-site completed-job counts padded with zeros to
// numSites entries (sites that completed nothing still count toward load
// spread). The returned slice is a copy.
func (c *Collector) SiteJobCounts(numSites int) []float64 {
	if numSites < len(c.siteJobs) {
		numSites = len(c.siteJobs)
	}
	out := make([]float64, numSites)
	copy(out, c.siteJobs)
	return out
}

// Results are the aggregate measurements of one Data Grid execution.
type Results struct {
	JobsDone int
	Makespan float64 // time of last job completion

	AvgResponseSec float64 // paper Figure 3a / 5
	MedResponseSec float64
	P95ResponseSec float64
	MinResponseSec float64 // exact in both result modes
	MaxResponseSec float64 // exact in both result modes
	AvgQueueWait   float64 // StartTime − DispatchTime

	// Response-time decomposition (means over jobs; see JobRecord.
	// Decompose). The four components sum to AvgResponseSec exactly, so
	// the §5 "where does response time go" story is a first-class
	// measurement: AvgDataWaitSec collapses under JobDataPresent with
	// replication while AvgCPUWaitSec grows at the hotspots.
	AvgDispatchWaitSec float64 // submit→dispatch (batch windows, retries)
	AvgDataWaitSec     float64 // dispatch→data ready (coupled transfers)
	AvgCPUWaitSec      float64 // data ready→start (processor contention)
	AvgExecSec         float64 // start→end

	// Response-time distribution: RespHistCounts[i] jobs finished with
	// response in [RespHistEdges[i], RespHistEdges[i+1]). Equal-width bins
	// over the observed range (RespHistBins of them); render with
	// report.ResponseHistogram. Exact in full mode; in bounded mode the
	// bins are reconstructed from the log-bucketed sketch, so counts near
	// bin edges may shift by one bin.
	RespHistCounts []int     `json:",omitempty"`
	RespHistEdges  []float64 `json:",omitempty"`

	AvgDataPerJobMB float64 // paper Figure 3b (all traffic / jobs)
	FetchMBPerJob   float64
	ReplMBPerJob    float64
	OutputMBPerJob  float64
	FetchCount      int
	ReplCount       int
	OutputCount     int

	IdleFrac float64 // paper Figure 4: fraction of processor-time idle

	// Bounded-mode extras. ResultMode records which collector produced
	// this Results. RespQuantileRelErr is the documented relative-error
	// bound on MedResponseSec/P95ResponseSec (zero when they are exact).
	// Exemplars is a uniform deterministic sample of completed-job rows;
	// TopSites and TopDatasets are the HotReportK sites and datasets with
	// the most completed jobs, exact counts.
	ResultMode         string      `json:",omitempty"`
	RespQuantileRelErr float64     `json:",omitempty"`
	Exemplars          []JobRecord `json:",omitempty"`
	TopSites           []HotItem   `json:",omitempty"`
	TopDatasets        []HotItem   `json:",omitempty"`
}

// Summarize computes the aggregates. busyCEIntegral is Σ over sites of
// ∫ busy(t) dt up to makespan; totalCEs is the grid-wide processor count.
// In full mode it reorders the response buffer in place; calling it again
// gives the same Results.
func (c *Collector) Summarize(busyCEIntegral float64, totalCEs int) Results {
	r := Results{
		JobsDone:    c.jobs,
		FetchCount:  c.fetchCount,
		ReplCount:   c.replCount,
		OutputCount: c.outputCount,
	}
	if c.bounded {
		r.ResultMode = "bounded"
	}
	if c.jobs == 0 {
		return r
	}
	n := float64(c.jobs)
	r.Makespan = c.makespan
	r.AvgResponseSec = c.respSum / n
	r.MinResponseSec = c.respMin
	r.MaxResponseSec = c.respMax
	r.AvgQueueWait = c.queueSum / n
	r.AvgDispatchWaitSec = c.dispatchSum / n
	r.AvgDataWaitSec = c.dataSum / n
	r.AvgCPUWaitSec = c.cpuSum / n
	r.AvgExecSec = c.execSum / n

	if c.bounded {
		r.MedResponseSec = c.hist.Quantile(0.5)
		r.P95ResponseSec = c.hist.Quantile(0.95)
		r.RespQuantileRelErr = c.hist.RelativeError()
		r.RespHistCounts, r.RespHistEdges = c.hist.Bins(RespHistBins)
		r.Exemplars = c.exemplars.Items()
		r.TopSites = hottest(c.siteJobs, HotReportK)
		r.TopDatasets = hottest(c.fileJobs, HotReportK)
	} else {
		// Selection reorders the buffer in place; neither the nearest-rank
		// values nor the histogram depend on its order. Every value at or
		// below the P95 rank is in xs[:p95+1], so the median is selected
		// within it.
		xs := c.responses
		p95 := nearestRank(0.95, len(xs))
		selectRank(xs, p95)
		r.P95ResponseSec = xs[p95]
		med := nearestRank(0.5, len(xs))
		selectRank(xs[:p95+1], med)
		r.MedResponseSec = xs[med]
		r.RespHistCounts, r.RespHistEdges = stats.Histogram(xs, RespHistBins)
	}

	const mb = 1e6
	r.AvgDataPerJobMB = (c.fetchBytes + c.replBytes + c.outputBytes) / mb / n
	r.FetchMBPerJob = c.fetchBytes / mb / n
	r.ReplMBPerJob = c.replBytes / mb / n
	r.OutputMBPerJob = c.outputBytes / mb / n

	if totalCEs > 0 && r.Makespan > 0 {
		busyFrac := busyCEIntegral / (float64(totalCEs) * r.Makespan)
		r.IdleFrac = 1 - busyFrac
		// Clamp tiny numeric excursions.
		r.IdleFrac = math.Max(0, math.Min(1, r.IdleFrac))
	}
	return r
}

// hottest returns the k keys with the highest nonzero counts, ordered by
// count descending, then key ascending.
func hottest(counts []float64, k int) []HotItem {
	var items []HotItem
	for key, n := range counts {
		if n > 0 {
			items = append(items, HotItem{Key: key, Count: int(n)})
		}
	}
	slices.SortFunc(items, func(a, b HotItem) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return items[:min(k, len(items))]
}

// nearestRank returns the index the nearest-rank p-quantile of n values
// has in their sorted order.
func nearestRank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// selectRank reorders xs so that xs[k] holds the value sorting would put
// there, with nothing greater before it and nothing smaller after it.
// Quickselect with a median-of-three pivot and a three-way partition (runs
// of equal values end a pass at once); a range still unsettled after
// 2·log2(n) passes is sorted outright, which bounds the worst case.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(xs[lo : hi+1])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		// xs[lo:lt] < pivot, xs[lt:i] == pivot, xs[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				xs[i], xs[gt] = xs[gt], x
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}
