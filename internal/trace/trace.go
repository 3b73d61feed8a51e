// Package trace records Data Grid executions (DGEs) as event sequences.
//
// The paper defines a DGE as "a sequence of job submissions, allocations,
// and executions along with data movements" (§3) and characterizes it by
// metrics computed over that sequence. This package captures the sequence
// itself: every lifecycle transition, transfer, replication, and eviction,
// with virtual timestamps. A recorded DGE can be written as JSON lines,
// reloaded, validated against the simulator's invariants, and re-analyzed
// offline — which also cross-checks the online metrics pipeline.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind enumerates DGE event types.
type Kind string

// DGE event kinds.
const (
	JobSubmitted  Kind = "job_submitted"  // user hands the job to its ES
	JobDispatched Kind = "job_dispatched" // ES placed the job at a site
	JobDataReady  Kind = "job_data_ready" // all inputs resident at the site
	JobStarted    Kind = "job_started"    // job occupies a compute element
	JobCompleted  Kind = "job_completed"  // job finished
	FetchStart    Kind = "fetch_start"    // job-driven transfer began
	FetchEnd      Kind = "fetch_end"      // job-driven transfer delivered
	ReplPush      Kind = "repl_push"      // DS decided to push a replica
	ReplArrive    Kind = "repl_arrive"    // pushed replica delivered
	Evicted       Kind = "evicted"        // LRU evicted a cached replica
	OutputStart   Kind = "output_start"   // job-output shipment began
	OutputEnd     Kind = "output_end"     // job-output shipment delivered

	// Fault-injection kinds (degraded-grid runs only).
	SiteCrashed   Kind = "site_crashed"   // site went down; Site set
	SiteRecovered Kind = "site_recovered" // site came back
	CEFailed      Kind = "ce_failed"      // one compute element went offline
	CERecovered   Kind = "ce_recovered"   // one compute element repaired
	LinkFault     Kind = "link_fault"     // link degraded or cut; Src holds link id
	LinkRepair    Kind = "link_repair"    // link back to nominal bandwidth
	TransferAbort Kind = "transfer_abort" // in-flight fetch or output killed
	ReplAbort     Kind = "repl_abort"     // in-flight replica push killed
	ReplicaLost   Kind = "replica_lost"   // cached replica dropped by fault
	JobRetried    Kind = "job_retried"    // failed job scheduled for resubmission
	JobAbandoned  Kind = "job_abandoned"  // job out of retries, permanently failed

	// TraceCut ends a log whose run was interrupted (StreamRecorder.Cut):
	// jobs still open at it are not an error. Nothing follows it.
	TraceCut Kind = "trace_cut"
)

// Event is one DGE record. Fields that do not apply to a kind are -1 (ids)
// or 0 (bytes).
type Event struct {
	T     float64 `json:"t"`
	Kind  Kind    `json:"kind"`
	Job   int     `json:"job,omitempty"`
	User  int     `json:"user,omitempty"`
	File  int     `json:"file,omitempty"`
	Src   int     `json:"src,omitempty"`
	Dst   int     `json:"dst,omitempty"`
	Site  int     `json:"site,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`
}

// Recorder consumes DGE events as the simulation emits them. Emission
// order is not guaranteed to be timestamp order (lifecycle events are
// flushed at completion); sinks that need order should sort, as Log does.
type Recorder interface {
	Record(Event)
}

// Discard is a Recorder that drops everything.
var Discard Recorder = discard{}

type discard struct{}

func (discard) Record(Event) {}

// Log is an in-memory Recorder.
type Log struct {
	events []Event
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Record implements Recorder.
func (l *Log) Record(e Event) { l.events = append(l.events, e) }

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Events returns the events sorted by timestamp (stable: emission order
// breaks ties). The log itself is sorted in place.
func (l *Log) Events() []Event {
	sort.SliceStable(l.events, func(i, j int) bool { return l.events[i].T < l.events[j].T })
	return l.events
}

// WriteJSONL writes the sorted events as JSON lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encoding event: %w", err)
		}
	}
	return bw.Flush()
}

// StreamRecorder writes events to an io.Writer as JSON lines the moment
// they are recorded, keeping memory flat for very long executions. Events
// are emitted in *recording* order, which is not timestamp order (job
// lifecycle events flush at completion); ReadJSONL + Log.Events restores
// timestamp order on load. Call Flush before reading the output. Record,
// Flush and Cut may be called from different goroutines.
type StreamRecorder struct {
	mu   sync.Mutex
	w    *bufio.Writer
	enc  *json.Encoder
	err  error
	n    int
	last float64 // latest timestamp recorded
	cut  bool
}

// NewStreamRecorder wraps w.
func NewStreamRecorder(w io.Writer) *StreamRecorder {
	bw := bufio.NewWriter(w)
	return &StreamRecorder{w: bw, enc: json.NewEncoder(bw)}
}

// Record implements Recorder. The first write error is retained and
// surfaces from Flush; later events are dropped, as are events recorded
// after Cut.
func (r *StreamRecorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || r.cut {
		return
	}
	if err := r.enc.Encode(e); err != nil {
		r.err = err
		return
	}
	r.n++
	r.last = max(r.last, e.T)
}

// Recorded returns the number of events successfully written.
func (r *StreamRecorder) Recorded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Flush drains buffers and reports the first error encountered.
func (r *StreamRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return fmt.Errorf("trace: stream recorder: %w", r.err)
	}
	return r.w.Flush()
}

// Cut ends the stream of a run that is being interrupted: it writes a
// TraceCut event at the latest timestamp recorded, so the marker sorts
// last, and flushes. Every later Record is dropped, so the log is a
// prefix of the run's events that BuildSpans accepts.
func (r *StreamRecorder) Cut() error {
	r.mu.Lock()
	if !r.cut && r.err == nil {
		if err := r.enc.Encode(Event{T: r.last, Kind: TraceCut}); err != nil {
			r.err = err
		}
	}
	r.cut = true
	r.mu.Unlock()
	return r.Flush()
}

// ReadJSONL parses a JSON-lines DGE trace.
func ReadJSONL(r io.Reader) (*Log, error) {
	l := NewLog()
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding event %d: %w", l.Len(), err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("trace: event %d has no kind", l.Len())
		}
		l.Record(e)
	}
	return l, nil
}
