package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func lifecycleEvents(jobID int, submit, dispatch, start, end float64, site int) []Event {
	return []Event{
		{T: submit, Kind: JobSubmitted, Job: jobID, User: 1},
		{T: dispatch, Kind: JobDispatched, Job: jobID, Site: site},
		{T: start, Kind: JobStarted, Job: jobID, Site: site},
		{T: end, Kind: JobCompleted, Job: jobID, Site: site, User: 1},
	}
}

func TestLogSortsByTime(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: 5, Kind: JobCompleted, Job: 1})
	l.Record(Event{T: 1, Kind: JobSubmitted, Job: 1})
	l.Record(Event{T: 3, Kind: JobStarted, Job: 1})
	evs := l.Events()
	if evs[0].Kind != JobSubmitted || evs[2].Kind != JobCompleted {
		t.Fatalf("not sorted: %v", evs)
	}
}

func TestLogStableTies(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: 2, Kind: JobSubmitted, Job: 7})
	l.Record(Event{T: 2, Kind: JobDispatched, Job: 7})
	evs := l.Events()
	if evs[0].Kind != JobSubmitted {
		t.Fatal("tie order not stable")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLog()
	for _, e := range lifecycleEvents(3, 0, 0, 10, 110, 4) {
		l.Record(e)
	}
	l.Record(Event{T: 2, Kind: FetchStart, File: 9, Src: 1, Dst: 4})
	l.Record(Event{T: 8, Kind: FetchEnd, File: 9, Src: 1, Dst: 4, Bytes: 5e8})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	l2, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != l.Len() {
		t.Fatalf("lost events: %d vs %d", l2.Len(), l.Len())
	}
	if l2.Events()[2].Kind != FetchStart {
		t.Fatalf("order lost: %v", l2.Events())
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"t":1}` + "\n")); err == nil {
		t.Fatal("expected missing-kind error")
	}
}

func TestDiscard(t *testing.T) {
	Discard.Record(Event{T: 1, Kind: JobSubmitted}) // must not panic
}

func TestStreamRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewStreamRecorder(&buf)
	r.Record(Event{T: 5, Kind: JobCompleted, Job: 1})
	r.Record(Event{T: 0, Kind: JobSubmitted, Job: 1})
	r.Record(Event{T: 0, Kind: JobDispatched, Job: 1})
	r.Record(Event{T: 2, Kind: JobStarted, Job: 1})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Recorded() != 4 {
		t.Fatalf("Recorded = %d", r.Recorded())
	}
	l, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 1 || a.Jobs[0].Response() != 5 {
		t.Fatalf("analysis = %+v", a.Jobs)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestStreamRecorderWriteError(t *testing.T) {
	r := NewStreamRecorder(failWriter{})
	for i := 0; i < 10000; i++ { // exceed the bufio buffer so Write fires
		r.Record(Event{T: float64(i), Kind: Evicted, File: i})
	}
	if err := r.Flush(); err == nil {
		t.Fatal("write error not surfaced")
	}
}

func TestAnalyzeHappyPath(t *testing.T) {
	l := NewLog()
	for _, e := range lifecycleEvents(1, 0, 0, 10, 110, 2) {
		l.Record(e)
	}
	for _, e := range lifecycleEvents(2, 0, 5, 20, 220, 3) {
		l.Record(e)
	}
	l.Record(Event{T: 1, Kind: FetchStart, File: 4, Src: 0, Dst: 2})
	l.Record(Event{T: 9, Kind: FetchEnd, File: 4, Src: 0, Dst: 2, Bytes: 1e9})
	l.Record(Event{T: 50, Kind: ReplPush, File: 4, Src: 2, Dst: 5})
	l.Record(Event{T: 80, Kind: ReplArrive, File: 4, Src: 2, Dst: 5, Bytes: 1e9})
	l.Record(Event{T: 90, Kind: Evicted, File: 7, Site: 5})

	a, err := Analyze(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(a.Jobs))
	}
	if a.Makespan != 220 {
		t.Fatalf("makespan = %v", a.Makespan)
	}
	if a.Response.Mean != (110+220)/2.0 {
		t.Fatalf("response mean = %v", a.Response.Mean)
	}
	if a.FetchBytes != 1e9 || a.ReplBytes != 1e9 || a.FetchCount != 1 || a.ReplCount != 1 {
		t.Fatalf("transfer accounting: %+v", a)
	}
	if a.PushCount != 1 || a.EvictCount != 1 {
		t.Fatalf("push/evict: %d/%d", a.PushCount, a.EvictCount)
	}
	if a.AvgDataPerJobMB() != 1000 {
		t.Fatalf("data/job = %v", a.AvgDataPerJobMB())
	}
	if a.JobsPerSite[2] != 1 || a.JobsPerSite[3] != 1 {
		t.Fatalf("jobs per site: %v", a.JobsPerSite)
	}
	if a.BytesPerFile[4] != 2e9 {
		t.Fatalf("bytes per file: %v", a.BytesPerFile)
	}
	if a.Jobs[0].Response() != 110 {
		t.Fatalf("timeline response = %v", a.Jobs[0].Response())
	}
}

func TestAnalyzeDetectsDuplicateLifecycle(t *testing.T) {
	l := NewLog()
	for _, e := range lifecycleEvents(1, 0, 0, 10, 110, 2) {
		l.Record(e)
	}
	l.Record(Event{T: 120, Kind: JobCompleted, Job: 1})
	if _, err := Analyze(l); err == nil {
		t.Fatal("duplicate completion not detected")
	}
}

func TestAnalyzeDetectsMissingLifecycle(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: 0, Kind: JobSubmitted, Job: 1})
	l.Record(Event{T: 5, Kind: JobCompleted, Job: 1})
	if _, err := Analyze(l); err == nil {
		t.Fatal("missing dispatch/start not detected")
	}
}

func TestAnalyzeDetectsOutOfOrderLifecycle(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: 10, Kind: JobSubmitted, Job: 1})
	l.Record(Event{T: 5, Kind: JobDispatched, Job: 1})
	l.Record(Event{T: 20, Kind: JobStarted, Job: 1})
	l.Record(Event{T: 30, Kind: JobCompleted, Job: 1})
	if _, err := Analyze(l); err == nil {
		t.Fatal("dispatch-before-submit not detected")
	}
}

func TestAnalyzeDetectsUnbalancedTransfers(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: 5, Kind: FetchEnd, File: 1, Src: 0, Dst: 1, Bytes: 1})
	if _, err := Analyze(l); err == nil {
		t.Fatal("fetch_end without start not detected")
	}
	l2 := NewLog()
	l2.Record(Event{T: 5, Kind: ReplArrive, File: 1, Src: 0, Dst: 1, Bytes: 1})
	if _, err := Analyze(l2); err == nil {
		t.Fatal("repl_arrive without push not detected")
	}
}

func TestAnalyzeRejectsNegativeTime(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: -1, Kind: JobSubmitted, Job: 1})
	if _, err := Analyze(l); err == nil {
		t.Fatal("negative time not detected")
	}
}

func TestAnalyzeRejectsUnknownKind(t *testing.T) {
	l := NewLog()
	l.Record(Event{T: 1, Kind: "martian"})
	if _, err := Analyze(l); err == nil {
		t.Fatal("unknown kind not detected")
	}
}

func TestSiteLoadGini(t *testing.T) {
	l := NewLog()
	// Nine jobs at site 0, one at site 1: concentrated.
	id := 0
	for i := 0; i < 9; i++ {
		for _, e := range lifecycleEvents(id, 0, 0, 1, 2, 0) {
			l.Record(e)
		}
		id++
	}
	for _, e := range lifecycleEvents(id, 0, 0, 1, 2, 1) {
		l.Record(e)
	}
	a, err := Analyze(l)
	if err != nil {
		t.Fatal(err)
	}
	if g := a.SiteLoadGini(); math.Abs(g-0.4) > 1e-9 {
		t.Fatalf("Gini = %v, want 0.4 for (9,1) split", g)
	}
}

// TestStreamRecorderCutWhileRecording cuts the stream while another
// goroutine keeps recording, as an interrupt does to a running
// simulation (run it with -race): the output must parse, end in the cut
// marker and hold exactly the events recorded before it.
func TestStreamRecorderCutWhileRecording(t *testing.T) {
	var buf bytes.Buffer
	r := NewStreamRecorder(&buf)
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for id := 0; ; id++ {
			for _, e := range lifecycleEvents(id, float64(id), float64(id), float64(id)+1, float64(id)+2, 0) {
				r.Record(e)
			}
			if id == 100 {
				close(started)
			}
			if id == 20000 {
				return
			}
		}
	}()
	<-started
	if err := r.Cut(); err != nil {
		t.Fatal(err)
	}
	n := r.Recorded()
	<-done
	if got := r.Recorded(); got != n {
		t.Fatalf("%d events recorded after the cut", got-n)
	}
	l, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("cut stream does not parse: %v", err)
	}
	if l.Len() != n+1 {
		t.Fatalf("stream holds %d events, want %d recorded + the marker", l.Len(), n)
	}
	evs := l.Events()
	if last := evs[len(evs)-1]; last.Kind != TraceCut {
		t.Fatalf("last event = %+v, want the cut marker", last)
	}
	f, err := BuildSpans(l)
	if err != nil {
		t.Fatalf("cut stream rejected: %v", err)
	}
	if !f.Cut {
		t.Fatal("Forest.Cut not set")
	}
}

// TestCutLogAcceptsOpenJobs: a job still open at the cut marker is
// dropped, the same log without the marker is rejected, and no event may
// follow the marker.
func TestCutLogAcceptsOpenJobs(t *testing.T) {
	build := func(tail ...Event) (*Forest, error) {
		l := NewLog()
		for _, e := range lifecycleEvents(1, 0, 0, 10, 110, 4) {
			l.Record(e)
		}
		l.Record(Event{T: 50, Kind: JobSubmitted, Job: 2, User: 1})
		l.Record(Event{T: 50, Kind: JobDispatched, Job: 2, Site: 4})
		l.Record(Event{T: 60, Kind: FetchStart, Job: 2, File: 9, Src: 1, Dst: 4})
		for _, e := range tail {
			l.Record(e)
		}
		return BuildSpans(l)
	}
	f, err := build(Event{T: 110, Kind: TraceCut})
	if err != nil {
		t.Fatalf("cut log rejected: %v", err)
	}
	if !f.Cut || len(f.Jobs) != 1 || f.Jobs[0].Job != 1 {
		t.Fatalf("cut log: Cut=%v, %d jobs; want the one completed job", f.Cut, len(f.Jobs))
	}
	if _, err := build(); err == nil || !strings.Contains(err.Error(), "job 2 has an incomplete lifecycle") {
		t.Fatalf("uncut log with an open job: err = %v", err)
	}
	if _, err := build(Event{T: 110, Kind: TraceCut}, Event{T: 120, Kind: Evicted, File: 3, Site: 4}); err == nil ||
		!strings.Contains(err.Error(), "after the trace_cut") {
		t.Fatalf("event after the cut: err = %v", err)
	}
}
