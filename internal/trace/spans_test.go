package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenLog builds a small DGE by hand: job 1 retried once (crashed
// site 2, rerun at site 3 with one input fetch and an output shipment),
// job 2 clean at site 4, plus one DS replication.
func goldenLog() *Log {
	l := NewLog()
	evs := []Event{
		{T: 0, Kind: JobSubmitted, Job: 1, User: 5},
		{T: 0, Kind: JobDispatched, Job: 1, Site: 2},
		{T: 40, Kind: SiteCrashed, Site: 2},
		{T: 40, Kind: JobRetried, Job: 1, Site: 2},
		{T: 50, Kind: JobDispatched, Job: 1, Site: 3},
		{T: 50, Kind: FetchStart, Job: 1, File: 9, Src: 0, Dst: 3},
		{T: 80, Kind: FetchEnd, Job: 1, File: 9, Src: 0, Dst: 3, Bytes: 3e8},
		{T: 80, Kind: JobDataReady, Job: 1, Site: 3},
		{T: 90, Kind: JobStarted, Job: 1, Site: 3},
		{T: 190, Kind: JobCompleted, Job: 1, Site: 3, User: 5},
		{T: 190, Kind: OutputStart, Job: 1, Src: 3, Dst: 0},
		{T: 210, Kind: OutputEnd, Job: 1, Src: 3, Dst: 0, Bytes: 1e8},

		{T: 10, Kind: JobSubmitted, Job: 2, User: 6},
		{T: 10, Kind: JobDispatched, Job: 2, Site: 4},
		{T: 10, Kind: JobDataReady, Job: 2, Site: 4},
		{T: 30, Kind: JobStarted, Job: 2, Site: 4},
		{T: 150, Kind: JobCompleted, Job: 2, Site: 4, User: 6},

		{T: 100, Kind: ReplPush, File: 9, Src: 0, Dst: 4},
		{T: 130, Kind: ReplArrive, File: 9, Src: 0, Dst: 4, Bytes: 3e8},
	}
	for _, e := range evs {
		l.Record(e)
	}
	return l
}

func TestBuildSpansGolden(t *testing.T) {
	f, err := BuildSpans(goldenLog())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Jobs) != 2 || len(f.Abandoned) != 0 || len(f.Repl) != 1 {
		t.Fatalf("forest shape: %d jobs, %d abandoned, %d repl", len(f.Jobs), len(f.Abandoned), len(f.Repl))
	}
	if f.Makespan != 190 {
		t.Fatalf("makespan = %v", f.Makespan)
	}

	j1 := f.Job(1)
	if j1 == nil || j1.User != 5 || j1.Site != 3 || j1.Retries != 1 {
		t.Fatalf("job 1 header: %+v", j1)
	}
	want := Decomposition{Retry: 50, Data: 30, Queue: 10, Exec: 100}
	if j1.Decomp != want {
		t.Fatalf("job 1 decomposition = %+v, want %+v", j1.Decomp, want)
	}
	if got := j1.Decomp.Response(); got != j1.Response() {
		t.Fatalf("decomposition sums to %v, response is %v", got, j1.Response())
	}
	// Children in start order: attempt(0-40)@site2, fetch(50-80),
	// data_wait(50-80), cpu_wait(80-90), exec(90-190), output(190-210).
	wantKinds := []SpanKind{SpanAttempt, SpanData, SpanFetch, SpanCPU, SpanExec, SpanOutput}
	if len(j1.Root.Children) != len(wantKinds) {
		t.Fatalf("job 1 has %d children: %+v", len(j1.Root.Children), j1.Root.Children)
	}
	for i, c := range j1.Root.Children {
		if c.Kind != wantKinds[i] {
			t.Fatalf("child %d kind = %s, want %s", i, c.Kind, wantKinds[i])
		}
	}
	attempt := j1.Root.Children[0]
	if attempt.Start != 0 || attempt.End != 40 || attempt.Site != 2 {
		t.Fatalf("attempt span: %+v", attempt)
	}
	var fetch *Span
	for _, c := range j1.Root.Children {
		if c.Kind == SpanFetch {
			fetch = c
		}
	}
	if fetch.File != 9 || fetch.Src != 0 || fetch.Dst != 3 || fetch.Bytes != 3e8 || fetch.Job != 1 {
		t.Fatalf("fetch span: %+v", fetch)
	}

	j2 := f.Job(2)
	if j2.Decomp != (Decomposition{Retry: 0, Data: 0, Queue: 20, Exec: 120}) {
		t.Fatalf("job 2 decomposition = %+v", j2.Decomp)
	}
	// Clean job with data already present: cpu_wait + exec only.
	if len(j2.Root.Children) != 2 || j2.Root.Children[0].Kind != SpanCPU || j2.Root.Children[1].Kind != SpanExec {
		t.Fatalf("job 2 children: %+v", j2.Root.Children)
	}

	if r := f.Repl[0]; r.Start != 100 || r.End != 130 || r.File != 9 || r.Dst != 4 {
		t.Fatalf("repl span: %+v", r)
	}
}

func TestBuildSpansClosesCrashKilledTransfers(t *testing.T) {
	l := NewLog()
	for _, e := range []Event{
		{T: 0, Kind: JobSubmitted, Job: 1, User: 0},
		{T: 0, Kind: JobDispatched, Job: 1, Site: 2},
		{T: 5, Kind: FetchStart, Job: 1, File: 3, Src: 7, Dst: 2},
		// Site 2 crashes; the fetch into it logs its abort first.
		{T: 20, Kind: TransferAbort, Job: 1, File: 3, Src: 7, Dst: 2},
		{T: 20, Kind: SiteCrashed, Site: 2},
		{T: 20, Kind: JobRetried, Job: 1, Site: 2},
		{T: 30, Kind: JobDispatched, Job: 1, Site: 4},
		{T: 30, Kind: JobDataReady, Job: 1, Site: 4},
		{T: 30, Kind: JobStarted, Job: 1, Site: 4},
		{T: 60, Kind: JobCompleted, Job: 1, Site: 4, User: 0},
	} {
		l.Record(e)
	}
	f, err := BuildSpans(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Loose) != 1 {
		t.Fatalf("loose spans = %+v", f.Loose)
	}
	sp := f.Loose[0]
	if !sp.Aborted || sp.End != 20 || sp.Kind != SpanFetch {
		t.Fatalf("crash-killed fetch not closed at crash time: %+v", sp)
	}
}

func TestCriticalPathTilesChain(t *testing.T) {
	l := NewLog()
	// One user, two jobs back to back with a 5 s gap; a second user whose
	// job ends earlier.
	for _, e := range []Event{
		{T: 0, Kind: JobSubmitted, Job: 1, User: 3},
		{T: 0, Kind: JobDispatched, Job: 1, Site: 1},
		{T: 10, Kind: JobDataReady, Job: 1, Site: 1},
		{T: 10, Kind: JobStarted, Job: 1, Site: 1},
		{T: 100, Kind: JobCompleted, Job: 1, Site: 1, User: 3},
		{T: 105, Kind: JobSubmitted, Job: 2, User: 3},
		{T: 105, Kind: JobDispatched, Job: 2, Site: 1},
		{T: 105, Kind: JobDataReady, Job: 2, Site: 1},
		{T: 120, Kind: JobStarted, Job: 2, Site: 1},
		{T: 200, Kind: JobCompleted, Job: 2, Site: 1, User: 3},
		{T: 0, Kind: JobSubmitted, Job: 3, User: 4},
		{T: 0, Kind: JobDispatched, Job: 3, Site: 2},
		{T: 0, Kind: JobDataReady, Job: 3, Site: 2},
		{T: 0, Kind: JobStarted, Job: 3, Site: 2},
		{T: 150, Kind: JobCompleted, Job: 3, Site: 2, User: 4},
	} {
		l.Record(e)
	}
	f, err := BuildSpans(l)
	if err != nil {
		t.Fatal(err)
	}
	p := f.CriticalPath()
	if p.User != 3 || len(p.Jobs) != 2 {
		t.Fatalf("critical path: %+v", p)
	}
	if p.Slack != 5 || p.Data != 10 || p.Queue != 15 || p.Exec != 170 || p.Retry != 0 {
		t.Fatalf("components: %+v", p)
	}
	sum := p.Retry + p.Data + p.Queue + p.Exec + p.Slack
	if math.Abs(sum-p.Length()) > 1e-9 {
		t.Fatalf("components sum to %v, chain length %v", sum, p.Length())
	}
	if p.End != f.Makespan {
		t.Fatalf("chain ends at %v, makespan %v", p.End, f.Makespan)
	}
}

func TestWriteChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenLog()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// Per-track spans must be monotone and non-overlapping.
	type track struct{ pid, tid int }
	last := make(map[track]float64)
	spans, metas, instants := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "i":
			instants++
		case "X":
			spans++
			k := track{e.Pid, e.Tid}
			if e.Ts < last[k] {
				t.Fatalf("track %v: span %q at %v overlaps previous ending %v", k, e.Name, e.Ts, last[k])
			}
			last[k] = e.Ts + e.Dur
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// Golden log: 2 exec + 1 fetch + 1 output + 1 repl spans, 1 crash.
	if spans != 5 || instants != 1 || metas == 0 {
		t.Fatalf("event mix: %d spans, %d instants, %d metas", spans, instants, metas)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	for _, name := range []string{"dge.jsonl", "dge.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		w, err := CreateWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewStreamRecorder(w)
		for _, e := range goldenLog().Events() {
			rec.Record(e)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Len() != goldenLog().Len() {
			t.Fatalf("%s: %d events round-tripped, want %d", name, l.Len(), goldenLog().Len())
		}
		if _, err := BuildSpans(l); err != nil {
			t.Fatalf("%s: reloaded trace invalid: %v", name, err)
		}
	}
}

func TestValidateFaultsAcceptsGoldenLog(t *testing.T) {
	if _, err := BuildSpans(goldenLog()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFaultsRejections(t *testing.T) {
	cases := []struct {
		name, want string
		evs        []Event
	}{
		{"double-crash", "crashed twice", []Event{
			{T: 1, Kind: SiteCrashed, Site: 2},
			{T: 2, Kind: SiteCrashed, Site: 2},
		}},
		{"recover-while-up", "recovered while up", []Event{
			{T: 1, Kind: SiteRecovered, Site: 2},
		}},
		{"dispatch-to-down-site", "has not recovered", []Event{
			{T: 0, Kind: JobSubmitted, Job: 1},
			{T: 1, Kind: SiteCrashed, Site: 2},
			{T: 5, Kind: JobDispatched, Job: 1, Site: 2},
		}},
		{"ce-recover-without-failure", "no failed CE", []Event{
			{T: 1, Kind: CERecovered, Site: 3},
		}},
		{"link-repair-while-nominal", "repaired while nominal", []Event{
			{T: 1, Kind: LinkRepair, Src: 4},
		}},
		{"abort-without-transfer", "no live transfer", []Event{
			{T: 1, Kind: TransferAbort, File: 7, Src: 0, Dst: 1},
		}},
		{"output-abort-without-shipment", "no live transfer", []Event{
			{T: 1, Kind: TransferAbort, File: -1, Src: 0, Dst: 1},
		}},
		{"repl-abort-of-a-fetch", "repl_abort of file 7 0->1 with no live transfer", []Event{
			{T: 0, Kind: FetchStart, File: 7, Src: 0, Dst: 1},
			{T: 1, Kind: ReplAbort, File: 7, Src: 0, Dst: 1},
		}},
		{"replica-lost-at-down-site", "has not recovered", []Event{
			{T: 1, Kind: SiteCrashed, Site: 2},
			{T: 5, Kind: ReplicaLost, Site: 2, File: 3},
		}},
		{"retry-before-submit", "retried before submission", []Event{
			{T: 1, Kind: JobRetried, Job: 9, Site: 0},
		}},
		{"abandon-without-retry", "abandoned without any retry", []Event{
			{T: 0, Kind: JobSubmitted, Job: 9},
			{T: 5, Kind: JobAbandoned, Job: 9},
		}},
		{"complete-after-abandon", "both abandoned and completed", []Event{
			{T: 0, Kind: JobSubmitted, Job: 9},
			{T: 1, Kind: JobRetried, Job: 9, Site: 0},
			{T: 2, Kind: JobAbandoned, Job: 9},
			{T: 3, Kind: JobCompleted, Job: 9},
		}},
		{"transfer-abort-of-a-push", "transfer_abort of file 7 0->1 with no live transfer", []Event{
			{T: 0, Kind: ReplPush, File: 7, Src: 0, Dst: 1},
			{T: 1, Kind: TransferAbort, File: 7, Src: 0, Dst: 1},
		}},
		{"output-abort-of-another-job", "no live transfer", []Event{
			{T: 0, Kind: OutputStart, Job: 8, Src: 0, Dst: 1},
			{T: 1, Kind: TransferAbort, Job: 9, File: -1, Src: 0, Dst: 1},
		}},
		{"crash-with-open-fetch-into-site", "site 2 crashed while a transfer it kills was open with no abort (fetch of job 4", []Event{
			{T: 0, Kind: FetchStart, Job: 4, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: SiteCrashed, Site: 2},
		}},
		{"crash-with-open-push-from-site", "site 1 crashed while a transfer it kills was open with no abort (repl", []Event{
			{T: 0, Kind: ReplPush, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: SiteCrashed, Site: 1},
		}},
		{"crash-with-open-push-into-site", "site 2 crashed while a transfer it kills was open with no abort (repl", []Event{
			{T: 0, Kind: ReplPush, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: SiteCrashed, Site: 2},
		}},
		{"crash-with-open-output-from-site", "site 2 crashed while a transfer it kills was open with no abort (output of job 8", []Event{
			{T: 0, Kind: OutputStart, Job: 8, Src: 2, Dst: 1},
			{T: 1, Kind: SiteCrashed, Site: 2},
		}},
		{"abort-after-crash-kill", "no live transfer", []Event{
			{T: 0, Kind: FetchStart, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: TransferAbort, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: SiteCrashed, Site: 2},
			{T: 2, Kind: TransferAbort, File: 5, Src: 1, Dst: 2},
		}},
		{"push-abort-after-source-crash", "no live transfer", []Event{
			{T: 0, Kind: ReplPush, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: ReplAbort, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: SiteCrashed, Site: 1},
			{T: 2, Kind: ReplAbort, File: 5, Src: 1, Dst: 2},
		}},
		{"output-abort-after-source-crash", "no live transfer", []Event{
			{T: 0, Kind: OutputStart, Job: 8, Src: 2, Dst: 1},
			{T: 1, Kind: TransferAbort, Job: 8, File: -1, Src: 2, Dst: 1},
			{T: 1, Kind: SiteCrashed, Site: 2},
			{T: 2, Kind: TransferAbort, Job: 8, File: -1, Src: 2, Dst: 1},
		}},
		{"fetch-end-after-crash-kill", "fetch_end without start", []Event{
			{T: 0, Kind: FetchStart, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: TransferAbort, File: 5, Src: 1, Dst: 2},
			{T: 1, Kind: SiteCrashed, Site: 2},
			{T: 2, Kind: FetchEnd, File: 5, Src: 1, Dst: 2},
		}},
		{"redispatch-without-retry", "2 dispatches and 1 starts for 0 retries", []Event{
			{T: 0, Kind: JobSubmitted, Job: 1},
			{T: 0, Kind: JobDispatched, Job: 1, Site: 2},
			{T: 1, Kind: JobDispatched, Job: 1, Site: 3},
			{T: 2, Kind: JobStarted, Job: 1, Site: 3},
			{T: 3, Kind: JobCompleted, Job: 1, Site: 3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog()
			for _, e := range tc.evs {
				l.Record(e)
			}
			_, err := BuildSpans(l)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateFaultsAllowsBoundaryTimeEvents(t *testing.T) {
	// A completion and a crash at the same instant are ordered arbitrarily
	// in the stream; the validator must not flag them.
	l := NewLog()
	for _, e := range []Event{
		{T: 0, Kind: JobSubmitted, Job: 1},
		{T: 0, Kind: JobDispatched, Job: 1, Site: 2},
		{T: 5, Kind: JobStarted, Job: 1, Site: 2},
		{T: 10, Kind: SiteCrashed, Site: 2},
		{T: 10, Kind: JobCompleted, Job: 1, Site: 2},
		{T: 20, Kind: SiteRecovered, Site: 2},
	} {
		l.Record(e)
	}
	if _, err := BuildSpans(l); err != nil {
		t.Fatal(err)
	}
}

// TestValidateFaultsMatchesAborts: each abort closes the transfer it
// names, so the deliveries of the others on the same route still match.
func TestValidateFaultsMatchesAborts(t *testing.T) {
	l := NewLog()
	for _, e := range []Event{
		{T: 0, Kind: FetchStart, Job: 4, File: 5, Src: 1, Dst: 2},
		{T: 1, Kind: ReplPush, File: 5, Src: 1, Dst: 2},
		{T: 3, Kind: ReplAbort, File: 5, Src: 1, Dst: 2},
		{T: 4, Kind: OutputStart, Job: 8, Src: 2, Dst: 1},
		{T: 5, Kind: OutputStart, Job: 9, Src: 2, Dst: 1},
		{T: 6, Kind: TransferAbort, Job: 9, File: -1, Src: 2, Dst: 1},
		{T: 7, Kind: FetchEnd, Job: 4, File: 5, Src: 1, Dst: 2},
		{T: 8, Kind: OutputEnd, Job: 8, Src: 2, Dst: 1},
		{T: 11, Kind: FetchStart, Job: 4, File: 7, Src: 1, Dst: 2},
		{T: 12, Kind: TransferAbort, Job: 4, File: 7, Src: 1, Dst: 2},
	} {
		l.Record(e)
	}
	f, err := BuildSpans(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Repl) != 1 || !f.Repl[0].Aborted || f.Repl[0].End != 3 {
		t.Fatalf("repl spans = %+v, want one aborted at 3", f.Repl)
	}
	var aborted []int
	for _, sp := range f.Loose {
		if sp.Aborted {
			aborted = append(aborted, sp.Job)
		}
	}
	if !reflect.DeepEqual(aborted, []int{9, 4}) {
		t.Fatalf("aborted loose spans of jobs %v, want [9 4]", aborted)
	}
}

// TestBuildSpansCrashSparesSurvivingTransfers: a crash kills only the
// transfers whose aborts precede it. A fetch the crashed site serves from
// a master copy and an output shipped to it keep flowing and deliver; a
// fetch it serves from a cached copy dies with its abort.
func TestBuildSpansCrashSparesSurvivingTransfers(t *testing.T) {
	l := NewLog()
	for _, e := range []Event{
		{T: 0, Kind: FetchStart, File: 5, Src: 1, Dst: 2},
		{T: 0, Kind: FetchStart, File: 6, Src: 1, Dst: 4},
		{T: 0, Kind: OutputStart, Job: 8, Src: 3, Dst: 1},
		{T: 1, Kind: TransferAbort, File: 6, Src: 1, Dst: 4},
		{T: 1, Kind: SiteCrashed, Site: 1},
		{T: 2, Kind: FetchEnd, File: 5, Src: 1, Dst: 2, Bytes: 1e9},
		{T: 3, Kind: OutputEnd, Job: 8, Src: 3, Dst: 1, Bytes: 1e8},
	} {
		l.Record(e)
	}
	f, err := BuildSpans(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Loose) != 3 {
		t.Fatalf("loose spans = %+v", f.Loose)
	}
	for i, want := range []struct {
		kind    SpanKind
		file    int
		end     float64
		aborted bool
	}{{SpanFetch, 5, 2, false}, {SpanFetch, 6, 1, true}, {SpanOutput, -1, 3, false}} {
		if sp := f.Loose[i]; sp.Kind != want.kind || sp.File != want.file || sp.End != want.end || sp.Aborted != want.aborted {
			t.Fatalf("loose[%d] = %+v, want a %s of file %d ending at %v, aborted %v",
				i, sp, want.kind, want.file, want.end, want.aborted)
		}
	}
}

// TestBuildSpansRefetchAfterCrash: once a crash kills a fetch, a later
// fetch of the same file on the same route closes its own span, not the
// dead one.
func TestBuildSpansRefetchAfterCrash(t *testing.T) {
	l := NewLog()
	for _, e := range []Event{
		{T: 0, Kind: FetchStart, Job: -1, File: 3, Src: 7, Dst: 2},
		{T: 20, Kind: TransferAbort, Job: -1, File: 3, Src: 7, Dst: 2},
		{T: 20, Kind: SiteCrashed, Site: 2},
		{T: 30, Kind: SiteRecovered, Site: 2},
		{T: 40, Kind: JobSubmitted, Job: 1},
		{T: 40, Kind: JobDispatched, Job: 1, Site: 2},
		{T: 40, Kind: FetchStart, Job: 1, File: 3, Src: 7, Dst: 2},
		{T: 50, Kind: FetchEnd, Job: 1, File: 3, Src: 7, Dst: 2, Bytes: 1e9},
		{T: 50, Kind: JobDataReady, Job: 1, Site: 2},
		{T: 50, Kind: JobStarted, Job: 1, Site: 2},
		{T: 60, Kind: JobCompleted, Job: 1, Site: 2},
	} {
		l.Record(e)
	}
	f, err := BuildSpans(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Loose) != 1 || f.Loose[0].Start != 0 || f.Loose[0].End != 20 || !f.Loose[0].Aborted {
		t.Fatalf("loose spans = %+v, want the dead fetch [0, 20]", f.Loose)
	}
	var fetches []*Span
	for _, sp := range f.Job(1).Root.Children {
		if sp.Kind == SpanFetch {
			fetches = append(fetches, sp)
		}
	}
	if len(fetches) != 1 || fetches[0].Start != 40 || fetches[0].End != 50 || fetches[0].Aborted {
		t.Fatalf("job 1 fetches = %+v, want one [40, 50]", fetches)
	}
}

func TestAssignLanes(t *testing.T) {
	mk := func(s, e float64) *Span { return &Span{Kind: SpanExec, Start: s, End: e, Job: -1, File: -1} }
	lanes := assignLanes([]*Span{mk(0, 10), mk(5, 15), mk(10, 20), mk(15, 18)})
	if len(lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(lanes))
	}
	for li, lane := range lanes {
		for i := 1; i < len(lane); i++ {
			if lane[i].Start < lane[i-1].End {
				t.Fatalf("lane %d overlaps: %+v after %+v", li, lane[i], lane[i-1])
			}
		}
	}
}
