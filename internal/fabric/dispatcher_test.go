package fabric

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/obs/logging"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testSpec(nCells int) CampaignSpec {
	base := core.DefaultConfig()
	base.Sites = 6
	base.Users = 12
	base.Files = 30
	base.TotalJobs = 60
	base.RegionFanout = 3
	var cells []experiments.Cell
	for i := 0; i < nCells; i++ {
		cells = append(cells, experiments.Cell{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: float64(10 * (i + 1))})
	}
	return CampaignSpec{Base: base, Cells: cells, Seeds: []uint64{1}}
}

// fakeRecord builds a record for a cell without running a simulation.
func fakeRecord(cell experiments.Cell) experiments.CellRecord {
	return experiments.CellRecord{Cell: cell, AvgResponseSec: cell.BandwidthMBps * 2}
}

// testLogger sends the fabric's log lines, debug ones included, to t.Log.
func testLogger(t *testing.T) *slog.Logger {
	return logging.New(testLogWriter{t}, slog.LevelDebug, "text", "")
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func mustDispatcher(t *testing.T, opts Options) (*Dispatcher, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	if opts.Now == nil {
		opts.Now = clock.Now
	}
	if opts.LeaseSeconds == 0 {
		opts.LeaseSeconds = 30
	}
	d, err := NewDispatcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func TestDispatcherLifecycle(t *testing.T) {
	d, _ := mustDispatcher(t, Options{})
	spec := testSpec(3)
	sub, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.CampaignID != spec.ID() || sub.Resumed {
		t.Fatalf("submit response %+v", sub)
	}
	// Idempotent resubmission attaches.
	sub2, err := d.Submit(spec)
	if err != nil || !sub2.Resumed || sub2.CampaignID != sub.CampaignID {
		t.Fatalf("resubmit: %+v, %v", sub2, err)
	}
	// A different campaign is rejected while this one runs.
	other := testSpec(2)
	if _, err := d.Submit(other); err == nil {
		t.Fatal("concurrent different campaign accepted")
	}

	reg := d.Register(RegisterRequest{Name: "a", Host: "h1", Capacity: 2})
	if reg.WorkerID == "" || reg.LeaseSeconds != 30 {
		t.Fatalf("register response %+v", reg)
	}
	resp, err := d.Book(BookRequest{WorkerID: reg.WorkerID, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 2 || resp.Shards[0].Index != 0 || resp.Shards[1].Index != 1 {
		t.Fatalf("booked %+v, want shards 0 and 1 in campaign order", resp.Shards)
	}
	st := d.State()
	if st.Phase != "running" || st.Counts["booked"] != 2 || st.Counts["queued"] != 1 {
		t.Fatalf("state after booking: %+v", st)
	}

	// Heartbeat with an executing shard moves it to executing.
	hb, err := d.Heartbeat(HeartbeatRequest{WorkerID: reg.WorkerID, Executing: []int{0, 1}})
	if err != nil || len(hb.Lost) != 0 {
		t.Fatalf("heartbeat: %+v, %v", hb, err)
	}
	if st := d.State(); st.Counts["executing"] != 2 {
		t.Fatalf("state after heartbeat: %+v", st.Counts)
	}

	// Upload all three shard records; the third books first.
	r3, err := d.Book(BookRequest{WorkerID: reg.WorkerID, Max: 1})
	if err != nil || len(r3.Shards) != 1 || r3.Shards[0].Index != 2 {
		t.Fatalf("booking third shard: %+v, %v", r3, err)
	}
	for i, cell := range spec.Cells {
		rec := fakeRecord(cell)
		ack, err := d.Result(ResultRequest{WorkerID: reg.WorkerID, CampaignID: sub.CampaignID, Shard: i, Record: rec})
		if err != nil || ack.Duplicate || ack.Stale {
			t.Fatalf("result %d: %+v, %v", i, ack, err)
		}
	}
	if st := d.State(); st.Phase != "merged" || st.Counts["completed"] != 3 {
		t.Fatalf("state after completion: %+v", st)
	}
	merged, err := d.Merged()
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRecords(t, spec.Cells)
	if string(merged) != want {
		t.Fatalf("merged stream:\n%s\nwant:\n%s", merged, want)
	}

	// Duplicate upload after completion is acked as duplicate, first wins.
	ack, err := d.Result(ResultRequest{WorkerID: reg.WorkerID, CampaignID: sub.CampaignID, Shard: 0, Record: fakeRecord(spec.Cells[0])})
	if err != nil || !ack.Duplicate {
		t.Fatalf("duplicate result: %+v, %v", ack, err)
	}

	// Once merged, a different campaign replaces this one.
	if _, err := d.Submit(other); err != nil {
		t.Fatalf("replacement campaign after merge: %v", err)
	}
}

// encodeRecords renders the canonical merged stream for fakeRecord cells.
func encodeRecords(t *testing.T, cells []experiments.Cell) string {
	t.Helper()
	var sb strings.Builder
	for _, cell := range cells {
		rec := fakeRecord(cell)
		js, err := jsonMarshalLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(js)
	}
	return sb.String()
}

func TestDispatcherLeaseExpiryRequeues(t *testing.T) {
	d, clock := mustDispatcher(t, Options{LeaseSeconds: 30, MaxAttempts: 3})
	spec := testSpec(2)
	sub, _ := d.Submit(spec)
	a := d.Register(RegisterRequest{Name: "a", Capacity: 2})
	b := d.Register(RegisterRequest{Name: "b", Capacity: 2})

	resp, _ := d.Book(BookRequest{WorkerID: a.WorkerID, Max: 2})
	if len(resp.Shards) != 2 {
		t.Fatalf("booked %d shards, want 2", len(resp.Shards))
	}
	// Worker a dies silently. Before the lease lapses, b gets nothing.
	clock.Advance(29 * time.Second)
	if resp, _ := d.Book(BookRequest{WorkerID: b.WorkerID, Max: 2}); len(resp.Shards) != 0 {
		t.Fatalf("b booked %d shards before lease expiry", len(resp.Shards))
	}
	// After the lease lapses, both shards requeue in campaign order.
	clock.Advance(2 * time.Second)
	resp, _ = d.Book(BookRequest{WorkerID: b.WorkerID, Max: 2})
	if len(resp.Shards) != 2 || resp.Shards[0].Index != 0 {
		t.Fatalf("b booked %+v after expiry, want shards 0,1", resp.Shards)
	}
	if st := d.State(); st.Requeues != 2 {
		t.Fatalf("requeues = %d, want 2", st.Requeues)
	}
	// a's late upload still lands (first record wins, not yet terminal).
	ack, err := d.Result(ResultRequest{WorkerID: a.WorkerID, CampaignID: sub.CampaignID, Shard: 0, Record: fakeRecord(spec.Cells[0])})
	if err != nil || ack.Duplicate {
		t.Fatalf("late upload from expired worker: %+v, %v", ack, err)
	}
	// b finishing the same shard dedupes.
	ack, err = d.Result(ResultRequest{WorkerID: b.WorkerID, CampaignID: sub.CampaignID, Shard: 0, Record: fakeRecord(spec.Cells[0])})
	if err != nil || !ack.Duplicate {
		t.Fatalf("second completion not deduped: %+v, %v", ack, err)
	}
	// a's heartbeat for shard 1 reports the lease lost.
	hb, err := d.Heartbeat(HeartbeatRequest{WorkerID: a.WorkerID, Executing: []int{1}})
	if err != nil || len(hb.Lost) != 1 || hb.Lost[0] != 1 {
		t.Fatalf("expired worker heartbeat: %+v, %v", hb, err)
	}
}

func TestDispatcherMaxAttemptsFailsShard(t *testing.T) {
	d, clock := mustDispatcher(t, Options{LeaseSeconds: 10, MaxAttempts: 2})
	spec := testSpec(1)
	if _, err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w := d.Register(RegisterRequest{Name: "crashy", Capacity: 1})
	for attempt := 0; attempt < 2; attempt++ {
		resp, err := d.Book(BookRequest{WorkerID: w.WorkerID, Max: 1})
		if err != nil || len(resp.Shards) != 1 {
			t.Fatalf("attempt %d: %+v, %v", attempt, resp, err)
		}
		clock.Advance(11 * time.Second)
	}
	// Third book finds the shard abandoned: campaign terminal, record
	// synthesized with an error.
	resp, err := d.Book(BookRequest{WorkerID: w.WorkerID, Max: 1})
	if err != nil || len(resp.Shards) != 0 || !resp.Done {
		t.Fatalf("after exhausting attempts: %+v, %v", resp, err)
	}
	st := d.State()
	if st.Phase != "merged" || st.Counts["failed"] != 1 {
		t.Fatalf("state: %+v", st)
	}
	merged, err := d.Merged()
	if err != nil {
		t.Fatal(err)
	}
	results, err := experiments.ReadStreamFile(writeTemp(t, merged))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("merged stream of abandoned shard: %+v", results)
	}
}

func TestDispatcherStaleAndBogusResults(t *testing.T) {
	d, _ := mustDispatcher(t, Options{})
	spec := testSpec(2)
	sub, _ := d.Submit(spec)
	w := d.Register(RegisterRequest{Name: "w", Capacity: 1})

	// Wrong campaign ID: stale.
	ack, err := d.Result(ResultRequest{WorkerID: w.WorkerID, CampaignID: "nope", Shard: 0, Record: fakeRecord(spec.Cells[0])})
	if err != nil || !ack.Stale {
		t.Fatalf("stale result: %+v, %v", ack, err)
	}
	// Out-of-range shard index: error.
	if _, err := d.Result(ResultRequest{WorkerID: w.WorkerID, CampaignID: sub.CampaignID, Shard: 7, Record: fakeRecord(spec.Cells[0])}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	// Record for the wrong cell: error (protects merge canonical order).
	if _, err := d.Result(ResultRequest{WorkerID: w.WorkerID, CampaignID: sub.CampaignID, Shard: 0, Record: fakeRecord(spec.Cells[1])}); err == nil {
		t.Fatal("mismatched cell record accepted")
	}
	// Unknown worker booking: error.
	if _, err := d.Book(BookRequest{WorkerID: "ghost", Max: 1}); err == nil {
		t.Fatal("unknown worker booked")
	}
}

func TestDispatcherJournalResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.journal")
	spec := testSpec(3)

	d1, _ := mustDispatcher(t, Options{JournalPath: journal})
	sub, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := d1.Register(RegisterRequest{Name: "w", Host: "h", Capacity: 3})
	if _, err := d1.Book(BookRequest{WorkerID: w.WorkerID, Max: 3}); err != nil {
		t.Fatal(err)
	}
	// Shard 1 completes; shards 0 and 2 are in flight when the
	// dispatcher "crashes".
	if _, err := d1.Result(ResultRequest{WorkerID: w.WorkerID, CampaignID: sub.CampaignID, Shard: 1, Record: fakeRecord(spec.Cells[1])}); err != nil {
		t.Fatal(err)
	}

	// Restart: the journal restores the spec and the completed shard;
	// the in-flight shards requeue.
	d2, _ := mustDispatcher(t, Options{JournalPath: journal})
	st := d2.State()
	if st.CampaignID != sub.CampaignID {
		t.Fatalf("resumed campaign %q, want %q", st.CampaignID, sub.CampaignID)
	}
	if st.Counts["completed"] != 1 || st.Counts["queued"] != 2 {
		t.Fatalf("resumed state: %+v", st.Counts)
	}
	// Resubmitting the identical spec attaches.
	if sub2, err := d2.Submit(spec); err != nil || !sub2.Resumed {
		t.Fatalf("resubmit after resume: %+v, %v", sub2, err)
	}
	// Finish the rest on a new worker; merged stream is canonical.
	w2 := d2.Register(RegisterRequest{Name: "w2", Capacity: 2})
	resp, _ := d2.Book(BookRequest{WorkerID: w2.WorkerID, Max: 2})
	if len(resp.Shards) != 2 || resp.Shards[0].Index != 0 || resp.Shards[1].Index != 2 {
		t.Fatalf("resumed queue: %+v, want shards 0 and 2", resp.Shards)
	}
	for _, s := range resp.Shards {
		if _, err := d2.Result(ResultRequest{WorkerID: w2.WorkerID, CampaignID: sub.CampaignID, Shard: s.Index, Record: fakeRecord(s.Cell)}); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := d2.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeRecords(t, spec.Cells); string(merged) != want {
		t.Fatalf("merged after resume:\n%s\nwant:\n%s", merged, want)
	}

	// A third restart of the fully merged campaign re-merges from the
	// journal alone.
	d3, _ := mustDispatcher(t, Options{JournalPath: journal})
	merged3, err := d3.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if string(merged3) != string(merged) {
		t.Fatal("journal-only re-merge differs")
	}
}

func TestDispatcherJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.journal")
	spec := testSpec(2)

	d1, _ := mustDispatcher(t, Options{JournalPath: journal})
	sub, _ := d1.Submit(spec)
	w := d1.Register(RegisterRequest{Name: "w", Capacity: 2})
	d1.Book(BookRequest{WorkerID: w.WorkerID, Max: 2})
	d1.Result(ResultRequest{WorkerID: w.WorkerID, CampaignID: sub.CampaignID, Shard: 0, Record: fakeRecord(spec.Cells[0])})

	// Simulate a crash mid-append: chop bytes off the journal tail.
	truncateTail(t, journal, 10)

	d2, _ := mustDispatcher(t, Options{JournalPath: journal})
	st := d2.State()
	if st.CampaignID != sub.CampaignID {
		t.Fatalf("campaign %q after truncated resume", st.CampaignID)
	}
	// The cut-off record is gone; its shard simply requeues.
	if got := st.Counts["completed"] + st.Counts["queued"]; got != 2 {
		t.Fatalf("resumed counts: %+v", st.Counts)
	}
}

func TestSubmitValidation(t *testing.T) {
	d, _ := mustDispatcher(t, Options{})
	if _, err := d.Submit(CampaignSpec{}); err == nil {
		t.Fatal("empty campaign accepted")
	}
	spec := testSpec(1)
	spec.Seeds = nil
	if _, err := d.Submit(spec); err == nil {
		t.Fatal("seedless campaign accepted")
	}
}

// TestSubmitRejectsUnknownParam checks that a cell naming a parameter no
// sweep defines, or a level its parameter does not have, fails
// submission over HTTP with 400 and a one-line error, and never reaches
// the queue.
func TestSubmitRejectsUnknownParam(t *testing.T) {
	d, _ := mustDispatcher(t, Options{})
	mux := http.NewServeMux()
	for pat, h := range d.Handlers() {
		mux.Handle(pat, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec := testSpec(2)
	for _, bad := range []struct {
		cell experiments.Cell
		want string
	}{
		{experiments.Cell{Param: "no-such-param", Value: 1}, `unknown parameter "no-such-param"`},
		{experiments.Cell{Param: "ls", Level: "no-such-level"}, `unknown level "no-such-level" of parameter "ls"`},
		{experiments.Cell{Param: "storage", Level: "no-such-level"}, `unknown level "no-such-level" of parameter "storage"`},
	} {
		spec.Cells[1].Param, spec.Cells[1].Value, spec.Cells[1].Level = bad.cell.Param, bad.cell.Value, bad.cell.Level
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/api/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", bad.want, resp.StatusCode)
		}
		_, err = (&Client{BaseURL: srv.URL}).Submit(spec)
		if err == nil || !strings.Contains(err.Error(), bad.want) || strings.Contains(err.Error(), "\n") {
			t.Fatalf("Submit error = %v, want one line containing %s", err, bad.want)
		}
		if _, err := d.Campaign(); err == nil {
			t.Fatal("rejected campaign was installed")
		}
	}

	spec.Cells[1].Param, spec.Cells[1].Value, spec.Cells[1].Level = "ls", 0, "LIFO"
	if _, err := d.Submit(spec); err != nil {
		t.Fatalf("known level rejected: %v", err)
	}
}

// jsonMarshalLine encodes exactly like the merge step (json.Encoder
// output is json.Marshal plus a trailing newline).
func jsonMarshalLine(v any) (string, error) {
	js, err := json.Marshal(v)
	return string(js) + "\n", err
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func truncateTail(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= n {
		t.Fatalf("journal only %d bytes", len(data))
	}
	if err := os.WriteFile(path, data[:len(data)-n], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestShardStateString(t *testing.T) {
	for st, want := range map[ShardState]string{
		Queued: "queued", Booked: "booked", Executing: "executing",
		Completed: "completed", Failed: "failed", ShardState(9): "ShardState(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestCampaignSpecID(t *testing.T) {
	a, b := testSpec(2), testSpec(2)
	if a.ID() != b.ID() {
		t.Fatal("identical specs hash differently")
	}
	b.Seeds = []uint64{1, 2}
	if a.ID() == b.ID() {
		t.Fatal("different specs hash identically")
	}
	if a.ID() == "" || len(a.ID()) != 12 {
		t.Fatalf("ID %q", a.ID())
	}
}
