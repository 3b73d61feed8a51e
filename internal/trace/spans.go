package trace

import (
	"fmt"
	"slices"
	"sort"
)

// This file reconstructs the causal structure of a DGE from its event
// stream: a span tree per completed job (placement wait, retry attempts,
// input fetches, data wait, processor wait, execution, output shipment)
// plus the asynchronous DS replication spans. The tree makes the paper's
// §5 response-time story a computable object — see critpath.go for the
// decomposition aggregates and critical-path walk built on top of it.

// SpanKind classifies one reconstructed interval of attributed activity.
type SpanKind string

// Span kinds.
const (
	SpanJob      SpanKind = "job"       // submit → completion (tree root)
	SpanDispatch SpanKind = "dispatch"  // submit → first dispatch (batch window)
	SpanAttempt  SpanKind = "attempt"   // a failed attempt, up to its retry event
	SpanFetch    SpanKind = "fetch"     // one input transfer on its src→dst route
	SpanData     SpanKind = "data_wait" // final dispatch → all inputs resident
	SpanCPU      SpanKind = "cpu_wait"  // data ready → start (CE contention)
	SpanExec     SpanKind = "exec"      // start → end on a compute element
	SpanOutput   SpanKind = "output"    // asynchronous output shipment
	SpanRepl     SpanKind = "repl"      // asynchronous DS replica push
)

// Span is one interval of the reconstructed execution. Identity fields
// that do not apply to a kind are -1. Children may overlap in time (an
// input fetch overlaps the data wait it causes); sibling order is by
// start time.
type Span struct {
	Kind       SpanKind
	Start, End float64
	Job        int // owning job; -1 for repl and unattributed transfers
	File       int // transferred file; -1 for non-transfer spans and outputs
	Src, Dst   int // transfer route endpoints; -1 for non-transfer spans
	Site       int // site the span happened at; -1 when not site-bound
	Bytes      float64
	// Aborted marks a transfer its abort event closed (an explicit abort
	// fault or a site crash); End is then the kill time, not a delivery.
	Aborted  bool
	Children []*Span
}

// Duration returns End − Start.
func (s *Span) Duration() float64 { return s.End - s.Start }

// Decomposition splits a completed job's response time into four phases
// that tile [submit, end] exactly:
//
//	Response = Retry + Data + Queue + Exec
//
// Retry covers submit → final dispatch (zero for clean online jobs;
// batch-window buffering and failed attempts plus backoff otherwise),
// Data covers final dispatch → data ready, Queue covers data ready →
// start, and Exec covers start → end. This is the offline mirror of
// metrics.Decomposition.
type Decomposition struct {
	Retry float64
	Data  float64
	Queue float64
	Exec  float64
}

// Response returns the sum of the four phases.
func (d Decomposition) Response() float64 { return d.Retry + d.Data + d.Queue + d.Exec }

// JobTree is the reconstructed span tree of one completed job. The
// embedded timeline holds its milestones: submit, final dispatch, data
// ready (-1 when the trace has none), start and end.
type JobTree struct {
	JobTimeline
	Retries int
	Root    *Span // SpanJob covering [submit, end]
	Decomp  Decomposition
}

// AbandonedJob records a job that ran out of retries: it has no span
// tree (it never completed) but still occupies its user's closed-loop
// submission chain from submit to abandonment.
type AbandonedJob struct {
	Job       int
	User      int
	Submit    float64
	Abandoned float64
	Retries   int
}

// Forest is the full causal reconstruction of a DGE.
type Forest struct {
	Jobs      []*JobTree     // completed jobs, ascending id
	Abandoned []AbandonedJob // ascending id
	Repl      []*Span        // DS replication spans, by push time
	// Loose holds transfer spans not attributable to a completed job:
	// fetches credited to an abandoned job or to no job (-1 requester on
	// restarts with no waiters, pre-attribution traces), and aborted
	// transfers whose job never finished. They still occupy link tracks.
	Loose    []*Span
	Makespan float64
	// Cut reports a trace that ends in a TraceCut event; its jobs still
	// open at the cut are in none of the lists above.
	Cut bool

	byJob map[int]*JobTree
	// counts holds the per-kind tallies and the bytes by purpose and by
	// file, summed in stream order; Analyze completes it from Jobs.
	counts Analysis
}

// Job returns the span tree for one job id, or nil.
func (f *Forest) Job(id int) *JobTree { return f.byJob[id] }

// jobBuild accumulates one job's milestones during the event walk. The
// timeline's Dispatch is the latest dispatch so far.
type jobBuild struct {
	JobTimeline
	firstDispatch               float64
	dispatches, starts, retries int
	haveSubmit, haveEnd         bool
	attempts, fetches, outputs  []*Span // attempts: closed failed attempts
	abandoned                   bool
	abandonT                    float64
	lastMilestone               float64 // start of the attempt in progress
}

// flowKey identifies one kind of in-flight transfer on a route: fetches
// and pushes by file, outputs (file -1) by route alone.
type flowKey struct {
	kind           SpanKind
	file, src, dst int
}

// crashKills reports whether a crash of site always kills the transfers
// of k, whose abort events then come before the crash: fetches into the
// site, pushes at either end and outputs the site sends. A fetch the site
// serves survives when it streams a master copy (its abort names it when
// it serves a cached one), and an output it receives keeps flowing.
func crashKills(k flowKey, site int) bool {
	switch k.kind {
	case SpanFetch:
		return k.dst == site
	case SpanRepl:
		return k.src == site || k.dst == site
	}
	return k.src == site
}

// siteFaults is one site's fault state during the walk.
type siteFaults struct {
	lastCrash float64
	down      bool // since lastCrash
	failedCEs int
}

// BuildSpans reconstructs the span forest from a trace in one walk over
// its events and checks the DGE invariants as it goes. The log is sorted
// as a side effect (Events). It returns an error when any of these fail:
//
//   - no event precedes time zero and every kind is known;
//   - each job is submitted exactly once and completes at most once; a
//     completed job has k+1 or fewer dispatches and starts for its k
//     retries (at least one of each), and its submit, final dispatch,
//     data ready, start and end are in order;
//   - an abandoned job was retried first and never completes; no job is
//     retried or abandoned before its submission;
//   - every fetch_end, repl_arrive and output_end closes an open
//     transfer of the same file (outputs: job) and route, oldest first;
//   - every repl_abort matches an open push of its file and route, and
//     every transfer_abort an open fetch of its file or, with file -1,
//     an output of its job and route;
//   - a site crash finds no transfer open that it always kills (see
//     crashKills): the abort of each comes first;
//   - site crash/recover and link fault/repair strictly alternate, a CE
//     is never repaired before it failed, and no dispatch, CE failure or
//     replica loss happens at a site that crashed strictly earlier and
//     has not recovered (a crash and an event at the same instant are
//     ordered arbitrarily in the stream).
//
// Every killed transfer has its abort event, so the walk closes spans
// only on events. A span still open at the end of the trace is dropped,
// as a truncated trace. A trace that ends in a TraceCut event is the
// prefix of an interrupted run: no event may follow the cut, and a job
// submitted but not yet completed or abandoned at it is dropped rather
// than rejected as an incomplete lifecycle (Forest.Cut records it).
func BuildSpans(l *Log) (*Forest, error) {
	jobs := make(map[int]*jobBuild)
	get := func(id int) *jobBuild {
		jb, ok := jobs[id]
		if !ok {
			jb = &jobBuild{JobTimeline: JobTimeline{Job: id, User: -1, Site: -1, DataReady: -1}, lastMilestone: -1}
			jobs[id] = jb
		}
		return jb
	}
	sites := make(map[int]*siteFaults)
	site := func(id int) *siteFaults {
		s, ok := sites[id]
		if !ok {
			s = &siteFaults{}
			sites[id] = s
		}
		return s
	}
	linkDown := make(map[int]bool)
	open := make(map[flowKey][]*Span) // each key's open spans, oldest first

	f := &Forest{byJob: make(map[int]*JobTree)}
	c := &f.counts
	c.BytesPerFile = make(map[int]float64)

	// checkUp rejects activity at a site that went down strictly before t.
	checkUp := func(id int, t float64, what string, arg int) error {
		if s := sites[id]; s != nil && s.down && s.lastCrash < t {
			return fmt.Errorf("trace: %s %d at site %d which crashed at %v and has not recovered (t=%v)",
				what, arg, id, s.lastCrash, t)
		}
		return nil
	}
	begin := func(k flowKey, sp *Span) { open[k] = append(open[k], sp) }
	// end closes the oldest open span of k (outputs: of e's job) at e
	// and removes it, or returns nil when there is none.
	end := func(k flowKey, e Event) *Span {
		i := 0
		if k.kind == SpanOutput {
			i = slices.IndexFunc(open[k], func(sp *Span) bool { return sp.Job == e.Job })
		}
		if i < 0 || len(open[k]) == 0 {
			return nil
		}
		sp := open[k][i]
		if q := slices.Delete(open[k], i, i+1); len(q) > 0 {
			open[k] = q
		} else {
			delete(open, k)
		}
		sp.End, sp.Bytes = e.T, e.Bytes
		return sp
	}

	for i, e := range l.Events() {
		if e.T < 0 {
			return nil, fmt.Errorf("trace: event %d at negative time %v", i, e.T)
		}
		if f.Cut {
			return nil, fmt.Errorf("trace: %s event after the trace_cut (t=%v)", e.Kind, e.T)
		}
		if e.T > f.Makespan && isJobKind(e.Kind) {
			f.Makespan = e.T
		}
		switch e.Kind {
		case JobSubmitted:
			jb := get(e.Job)
			if jb.haveSubmit {
				return nil, fmt.Errorf("trace: job %d submitted twice", e.Job)
			}
			jb.haveSubmit = true
			jb.Submit = e.T
			jb.User = e.User
			jb.lastMilestone = e.T
		case JobDispatched:
			if err := checkUp(e.Site, e.T, "job_dispatched", e.Job); err != nil {
				return nil, err
			}
			jb := get(e.Job)
			if jb.dispatches == 0 {
				jb.firstDispatch = e.T
			}
			jb.dispatches++
			jb.Dispatch = e.T
			jb.Site = e.Site
			jb.lastMilestone = e.T
		case JobDataReady:
			get(e.Job).DataReady = e.T
		case JobStarted:
			jb := get(e.Job)
			jb.starts++
			jb.Start = e.T
		case JobCompleted:
			jb := get(e.Job)
			if jb.haveEnd {
				return nil, fmt.Errorf("trace: job %d completed twice", e.Job)
			}
			jb.haveEnd = true
			jb.End = e.T
		case JobRetried:
			c.RetryCount++
			jb := get(e.Job)
			if !jb.haveSubmit {
				return nil, fmt.Errorf("trace: job %d retried before submission (t=%v)", e.Job, e.T)
			}
			jb.attempts = append(jb.attempts, &Span{
				Kind: SpanAttempt, Start: jb.lastMilestone, End: e.T,
				Job: e.Job, File: -1, Src: -1, Dst: -1, Site: e.Site,
			})
			jb.retries++
			jb.lastMilestone = e.T // backoff runs from the failure
		case JobAbandoned:
			c.AbandonedCount++
			jb := get(e.Job)
			if jb.retries == 0 {
				return nil, fmt.Errorf("trace: job %d abandoned without any retry (t=%v)", e.Job, e.T)
			}
			jb.abandoned = true
			jb.abandonT = e.T
		case FetchStart:
			begin(flowKey{SpanFetch, e.File, e.Src, e.Dst}, &Span{
				Kind: SpanFetch, Start: e.T, End: -1,
				Job: e.Job, File: e.File, Src: e.Src, Dst: e.Dst, Site: e.Dst,
			})
		case FetchEnd:
			sp := end(flowKey{SpanFetch, e.File, e.Src, e.Dst}, e)
			if sp == nil {
				return nil, fmt.Errorf("trace: fetch_end without start (file %d %d->%d)", e.File, e.Src, e.Dst)
			}
			c.FetchBytes += e.Bytes
			c.FetchCount++
			c.BytesPerFile[e.File] += e.Bytes
			if jb, ok := jobs[sp.Job]; ok && sp.Job >= 0 {
				jb.fetches = append(jb.fetches, sp)
			} else {
				f.Loose = append(f.Loose, sp)
			}
		case ReplPush:
			c.PushCount++
			sp := &Span{
				Kind: SpanRepl, Start: e.T, End: -1,
				Job: -1, File: e.File, Src: e.Src, Dst: e.Dst, Site: e.Dst,
			}
			begin(flowKey{SpanRepl, e.File, e.Src, e.Dst}, sp)
			f.Repl = append(f.Repl, sp)
		case ReplArrive:
			if end(flowKey{SpanRepl, e.File, e.Src, e.Dst}, e) == nil {
				return nil, fmt.Errorf("trace: repl_arrive without push (file %d %d->%d)", e.File, e.Src, e.Dst)
			}
			c.ReplBytes += e.Bytes
			c.ReplCount++
			c.BytesPerFile[e.File] += e.Bytes
		case OutputStart:
			begin(flowKey{SpanOutput, -1, e.Src, e.Dst}, &Span{
				Kind: SpanOutput, Start: e.T, End: -1,
				Job: e.Job, File: -1, Src: e.Src, Dst: e.Dst, Site: e.Dst,
			})
		case OutputEnd:
			sp := end(flowKey{SpanOutput, -1, e.Src, e.Dst}, e)
			if sp == nil {
				return nil, fmt.Errorf("trace: output_end without start (job %d %d->%d)", e.Job, e.Src, e.Dst)
			}
			c.OutputBytes += e.Bytes
			c.OutputCount++
			if jb, ok := jobs[sp.Job]; ok {
				jb.outputs = append(jb.outputs, sp)
			} else {
				f.Loose = append(f.Loose, sp)
			}
		case TransferAbort, ReplAbort:
			c.FaultCount++
			// An abort closes its flow's span as the delivery would have.
			k := flowKey{SpanFetch, e.File, e.Src, e.Dst}
			if e.Kind == ReplAbort {
				k.kind = SpanRepl
			} else if e.File < 0 {
				k.kind = SpanOutput
			}
			sp := end(k, e)
			if sp == nil {
				return nil, fmt.Errorf("trace: %s of file %d %d->%d with no live transfer (t=%v)",
					e.Kind, e.File, e.Src, e.Dst, e.T)
			}
			sp.Aborted = true
			if sp.Kind != SpanRepl {
				f.Loose = append(f.Loose, sp)
			}
		case SiteCrashed:
			c.FaultCount++
			s := site(e.Site)
			if s.down {
				return nil, fmt.Errorf("trace: site %d crashed twice without recovery (t=%v)", e.Site, e.T)
			}
			s.down, s.lastCrash = true, e.T
			var missed []*Span
			for k, q := range open {
				if crashKills(k, e.Site) {
					missed = append(missed, q...)
				}
			}
			if len(missed) > 0 {
				sortSpans(missed)
				sp := missed[0]
				return nil, fmt.Errorf("trace: site %d crashed while a transfer it kills was open with no abort (%s of job %d, file %d %d->%d, started %v; t=%v)",
					e.Site, sp.Kind, sp.Job, sp.File, sp.Src, sp.Dst, sp.Start, e.T)
			}
		case SiteRecovered:
			c.RepairCount++
			s := site(e.Site)
			if !s.down {
				return nil, fmt.Errorf("trace: site %d recovered while up (t=%v)", e.Site, e.T)
			}
			s.down = false
		case CEFailed:
			c.FaultCount++
			if err := checkUp(e.Site, e.T, "ce_failed", e.Site); err != nil {
				return nil, err
			}
			site(e.Site).failedCEs++
		case CERecovered:
			c.RepairCount++
			s := site(e.Site)
			if s.failedCEs == 0 {
				return nil, fmt.Errorf("trace: ce_recovered at site %d with no failed CE (t=%v)", e.Site, e.T)
			}
			s.failedCEs--
		case LinkFault:
			c.FaultCount++
			if linkDown[e.Src] {
				return nil, fmt.Errorf("trace: link %d faulted twice without repair (t=%v)", e.Src, e.T)
			}
			linkDown[e.Src] = true
		case LinkRepair:
			c.RepairCount++
			if !linkDown[e.Src] {
				return nil, fmt.Errorf("trace: link %d repaired while nominal (t=%v)", e.Src, e.T)
			}
			delete(linkDown, e.Src)
		case ReplicaLost:
			c.FaultCount++
			if err := checkUp(e.Site, e.T, "replica_lost of file", e.File); err != nil {
				return nil, err
			}
		case Evicted:
			c.EvictCount++
		case TraceCut:
			f.Cut = true
		default:
			return nil, fmt.Errorf("trace: unknown event kind %q", e.Kind)
		}
	}

	// Replication spans that never closed are dropped.
	kept := f.Repl[:0]
	for _, sp := range f.Repl {
		if sp.End >= 0 {
			kept = append(kept, sp)
		}
	}
	f.Repl = kept

	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		jb := jobs[id]
		if !jb.haveSubmit {
			return nil, fmt.Errorf("trace: job %d has events but no submission", id)
		}
		if jb.abandoned {
			if jb.haveEnd {
				return nil, fmt.Errorf("trace: job %d both abandoned and completed", id)
			}
			f.Abandoned = append(f.Abandoned, AbandonedJob{
				Job: id, User: jb.User, Submit: jb.Submit,
				Abandoned: jb.abandonT, Retries: jb.retries,
			})
			f.Loose = append(f.Loose, jb.fetches...)
			f.Loose = append(f.Loose, jb.outputs...)
			continue
		}
		if !jb.haveEnd && f.Cut {
			continue // still running when the run was interrupted
		}
		if !jb.haveEnd || jb.starts == 0 || jb.dispatches == 0 {
			return nil, fmt.Errorf("trace: job %d has an incomplete lifecycle", id)
		}
		if jb.dispatches > jb.retries+1 || jb.starts > jb.retries+1 {
			return nil, fmt.Errorf("trace: job %d has %d dispatches and %d starts for %d retries",
				id, jb.dispatches, jb.starts, jb.retries)
		}
		tree, err := jb.build()
		if err != nil {
			return nil, err
		}
		f.Jobs = append(f.Jobs, tree)
		f.byJob[id] = tree
	}
	sortSpans(f.Loose)
	return f, nil
}

// build assembles the span tree for one completed job.
func (jb *jobBuild) build() (*JobTree, error) {
	finalDispatch := jb.Dispatch
	ready := jb.DataReady
	if ready < 0 {
		ready = jb.Start // defensive: treat the wait as pure data wait
	}
	if jb.Submit > finalDispatch || finalDispatch > ready || ready > jb.Start || jb.Start > jb.End {
		return nil, fmt.Errorf("trace: job %d lifecycle out of order (%v %v %v %v %v)",
			jb.Job, jb.Submit, finalDispatch, ready, jb.Start, jb.End)
	}
	root := &Span{
		Kind: SpanJob, Start: jb.Submit, End: jb.End,
		Job: jb.Job, File: -1, Src: -1, Dst: -1, Site: jb.Site,
	}
	if jb.firstDispatch > jb.Submit && jb.retries == 0 {
		// Pure placement wait (batch-window buffering). On retried jobs
		// the attempt spans already cover [submit, finalDispatch].
		root.Children = append(root.Children, &Span{
			Kind: SpanDispatch, Start: jb.Submit, End: jb.firstDispatch,
			Job: jb.Job, File: -1, Src: -1, Dst: -1, Site: -1,
		})
	}
	root.Children = append(root.Children, jb.attempts...)
	root.Children = append(root.Children, jb.fetches...)
	if ready > finalDispatch {
		root.Children = append(root.Children, &Span{
			Kind: SpanData, Start: finalDispatch, End: ready,
			Job: jb.Job, File: -1, Src: -1, Dst: -1, Site: jb.Site,
		})
	}
	if jb.Start > ready {
		root.Children = append(root.Children, &Span{
			Kind: SpanCPU, Start: ready, End: jb.Start,
			Job: jb.Job, File: -1, Src: -1, Dst: -1, Site: jb.Site,
		})
	}
	root.Children = append(root.Children, &Span{
		Kind: SpanExec, Start: jb.Start, End: jb.End,
		Job: jb.Job, File: -1, Src: -1, Dst: -1, Site: jb.Site,
	})
	root.Children = append(root.Children, jb.outputs...)
	sortSpans(root.Children)
	return &JobTree{
		JobTimeline: jb.JobTimeline,
		Retries:     jb.retries,
		Root:        root,
		Decomp: Decomposition{
			Retry: finalDispatch - jb.Submit,
			Data:  ready - finalDispatch,
			Queue: jb.Start - ready,
			Exec:  jb.End - jb.Start,
		},
	}, nil
}

// isJobKind reports whether k is a job lifecycle kind, the kinds that
// set the makespan.
func isJobKind(k Kind) bool {
	switch k {
	case JobSubmitted, JobDispatched, JobDataReady, JobStarted, JobCompleted, JobAbandoned:
		return true
	}
	return false
}

// sortSpans orders spans by start time, breaking ties by kind then ids,
// for deterministic output: spans that tie on all of them came from one
// FIFO, in its order.
func sortSpans(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}
