package trace

import "chicsim/internal/stats"

// JobTimeline is the reconstructed lifecycle of one job from a DGE trace.
type JobTimeline struct {
	Job       int
	User      int
	Site      int
	Submit    float64
	Dispatch  float64
	DataReady float64 // -1 when the trace carries no data-ready event
	Start     float64
	End       float64
}

// Response returns End − Submit.
func (jt JobTimeline) Response() float64 { return jt.End - jt.Submit }

// Analysis is the offline recomputation of DGE metrics from a trace.
type Analysis struct {
	Jobs      []JobTimeline
	Makespan  float64
	Response  stats.Summary
	QueueWait stats.Summary

	FetchBytes   float64
	ReplBytes    float64
	OutputBytes  float64
	FetchCount   int
	ReplCount    int
	OutputCount  int
	PushCount    int
	EvictCount   int
	JobsPerSite  map[int]int
	BytesPerFile map[int]float64

	// Fault-injection events (zero on failure-free traces).
	FaultCount     int // site/CE/link faults + aborts + replica losses
	RepairCount    int
	RetryCount     int
	AbandonedCount int // jobs that ran out of retries (absent from Jobs)
}

// AvgDataPerJobMB returns total traffic per completed job, matching the
// paper's Figure 3b definition.
func (a *Analysis) AvgDataPerJobMB() float64 {
	if len(a.Jobs) == 0 {
		return 0
	}
	return (a.FetchBytes + a.ReplBytes + a.OutputBytes) / 1e6 / float64(len(a.Jobs))
}

// SiteLoadGini returns the Gini coefficient of completed-job counts per
// execution site: the hotspot concentration measure.
func (a *Analysis) SiteLoadGini() float64 {
	if len(a.JobsPerSite) == 0 {
		return 0
	}
	var xs []float64
	for _, n := range a.JobsPerSite {
		xs = append(xs, float64(n))
	}
	g, err := stats.Gini(xs)
	if err != nil {
		return 0
	}
	return g
}

// Analyze summarizes the span forest of a trace (BuildSpans, whose walk
// checks the DGE invariants) as per-job timelines and aggregate metrics.
func Analyze(l *Log) (*Analysis, error) {
	f, err := BuildSpans(l)
	if err != nil {
		return nil, err
	}
	return f.summarize(), nil
}

// summarize completes the walk's tallies with the per-job timelines and
// the response and queue-wait summaries.
func (f *Forest) summarize() *Analysis {
	a := f.counts
	a.Makespan = f.Makespan
	a.JobsPerSite = make(map[int]int)
	var responses, waits []float64
	for _, t := range f.Jobs {
		a.Jobs = append(a.Jobs, t.JobTimeline)
		a.JobsPerSite[t.Site]++
		responses = append(responses, t.Response())
		waits = append(waits, t.Start-t.Dispatch)
	}
	a.Response = stats.Summarize(responses)
	a.QueueWait = stats.Summarize(waits)
	return &a
}
