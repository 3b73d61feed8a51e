package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chicsim/internal/trace"
)

func kinds(sh ShardTimeline) []string {
	out := make([]string, len(sh.Events))
	for i, ev := range sh.Events {
		out[i] = ev.Kind
	}
	return out
}

func wantKinds(t *testing.T, sh ShardTimeline, want ...string) {
	t.Helper()
	got := kinds(sh)
	if len(got) != len(want) {
		t.Fatalf("shard %d events = %v, want %v", sh.Index, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard %d events = %v, want %v", sh.Index, got, want)
		}
	}
}

func wantMonotone(t *testing.T, doc TimelineDoc) {
	t.Helper()
	for _, sh := range doc.Shards {
		var prev time.Time
		for _, ev := range sh.Events {
			if ev.T.Before(prev) {
				t.Fatalf("shard %d timeline not monotone: %s at %v after %v", sh.Index, ev.Kind, ev.T, prev)
			}
			prev = ev.T
		}
	}
}

// TestTimelineAcrossDispatcherResume is the golden cross-process
// timeline: a campaign's event history must survive a dispatcher kill
// and resume through the journal, with the in-flight shard's lost
// attempt closed by a requeued event, and the second incarnation's
// events appended to the same per-shard history.
func TestTimelineAcrossDispatcherResume(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "q.journal")
	d1, clock := mustDispatcher(t, Options{JournalPath: jp, Logger: testLogger(t)})
	spec := testSpec(3)
	if _, err := d1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	a := d1.Register(RegisterRequest{Name: "a", Host: "h1", Capacity: 2})
	clock.Advance(time.Second)
	if resp, err := d1.Book(BookRequest{WorkerID: a.WorkerID, Max: 2}); err != nil || len(resp.Shards) != 2 {
		t.Fatalf("book: %+v, %v", resp, err)
	}
	clock.Advance(time.Second)
	if _, err := d1.Heartbeat(HeartbeatRequest{WorkerID: a.WorkerID, Executing: []int{0}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	rec := fakeRecord(spec.Cells[0])
	if resp, err := d1.Result(ResultRequest{WorkerID: a.WorkerID, CampaignID: spec.ID(), Shard: 0, Record: rec}); err != nil || resp.Duplicate {
		t.Fatalf("result: %+v, %v", resp, err)
	}

	// "Kill" d1 (drop it; the journal is its only legacy) and resume.
	clock.Advance(time.Minute)
	d2, err := NewDispatcher(Options{JournalPath: jp, LeaseSeconds: 30, Now: clock.Now, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	tl := d2.Timeline()
	if tl.CampaignID != spec.ID() || tl.Phase != "running" || len(tl.Shards) != 3 {
		t.Fatalf("resumed timeline header: %+v", tl)
	}
	wantMonotone(t, tl)
	wantKinds(t, tl.Shards[0], EventQueued, EventBooked, EventExecuting, EventUploaded)
	wantKinds(t, tl.Shards[1], EventQueued, EventBooked, EventRequeued)
	wantKinds(t, tl.Shards[2], EventQueued)
	if tl.Shards[0].State != "completed" || tl.Shards[1].State != "queued" {
		t.Fatalf("resumed states: %s / %s", tl.Shards[0].State, tl.Shards[1].State)
	}
	// The lost attempt's provenance survived the crash.
	req := tl.Shards[1].Events[2]
	if req.Worker != a.WorkerID || tl.Shards[1].Attempts != 1 {
		t.Fatalf("requeued event %+v (attempts %d), want worker %s attempt 1", req, tl.Shards[1].Attempts, a.WorkerID)
	}

	// Finish the campaign on the second incarnation with a new worker.
	b := d2.Register(RegisterRequest{Name: "b", Host: "h2", Capacity: 2})
	resp, err := d2.Book(BookRequest{WorkerID: b.WorkerID, Max: 2})
	if err != nil || len(resp.Shards) != 2 || resp.Shards[0].Index != 1 {
		t.Fatalf("resume book: %+v, %v", resp, err)
	}
	clock.Advance(time.Second)
	for _, sh := range resp.Shards {
		r := fakeRecord(sh.Cell)
		if _, err := d2.Result(ResultRequest{WorkerID: b.WorkerID, CampaignID: spec.ID(), Shard: sh.Index, Record: r}); err != nil {
			t.Fatal(err)
		}
	}
	tl = d2.Timeline()
	if tl.Phase != "merged" {
		t.Fatalf("phase = %s, want merged", tl.Phase)
	}
	wantMonotone(t, tl)
	wantKinds(t, tl.Shards[1], EventQueued, EventBooked, EventRequeued, EventBooked, EventUploaded)
	if got := tl.Shards[1].Events[3].Worker; got != b.WorkerID {
		t.Fatalf("rebooked worker = %s, want %s", got, b.WorkerID)
	}
	if _, err := d2.Merged(); err != nil {
		t.Fatal(err)
	}

	// A third incarnation replays the full two-incarnation history
	// identically (the golden resume property: the timeline is a pure
	// function of the journal).
	d3, err := NewDispatcher(Options{JournalPath: jp, LeaseSeconds: 30, Now: clock.Now, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	js2, _ := json.Marshal(tl)
	js3, _ := json.Marshal(d3.Timeline())
	if !bytes.Equal(js2, js3) {
		t.Fatalf("timeline changed across a second resume:\n%s\nvs\n%s", js2, js3)
	}
}

// TestTimelineLeaseExpiryAndPoison covers the fault arc: lease expiry
// emits lease_expired + requeued events and bumps the counters; burning
// MaxAttempts poisons the shard with a synthesized failed record.
func TestTimelineLeaseExpiryAndPoison(t *testing.T) {
	d, clock := mustDispatcher(t, Options{MaxAttempts: 2})
	spec := testSpec(1)
	if _, err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	a := d.Register(RegisterRequest{Name: "a", Capacity: 1})
	mustValue := func(name string, want float64, labels ...string) {
		t.Helper()
		v, ok := d.Registry().Value(name, labels...)
		if !ok || v != want {
			t.Fatalf("%s%v = %v (ok=%v), want %v", name, labels, v, ok, want)
		}
	}

	if _, err := d.Book(BookRequest{WorkerID: a.WorkerID, Max: 1}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(31 * time.Second)
	d.State() // any API entry sweeps leases
	tl := d.Timeline()
	wantKinds(t, tl.Shards[0], EventQueued, EventBooked, EventLeaseExpired, EventRequeued)
	mustValue("fabric_lease_expiries_total", 1)
	mustValue("fabric_shards_requeued_total", 1)
	mustValue("fabric_shards", 1, "queued")

	if _, err := d.Book(BookRequest{WorkerID: a.WorkerID, Max: 1}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(31 * time.Second)
	d.State()
	tl = d.Timeline()
	wantMonotone(t, tl)
	wantKinds(t, tl.Shards[0], EventQueued, EventBooked, EventLeaseExpired, EventRequeued, EventBooked, EventPoisoned)
	if tl.Shards[0].State != "failed" || tl.Phase != "merged" {
		t.Fatalf("poisoned shard state %s phase %s", tl.Shards[0].State, tl.Phase)
	}
	mustValue("fabric_lease_expiries_total", 2)
	mustValue("fabric_shards_poisoned_total", 1)
	mustValue("fabric_shards", 1, "failed")
	mustValue("fabric_shards_remaining", 0)
	merged, err := d.Merged()
	if err != nil || !bytes.Contains(merged, []byte("abandoned after 2 lease expiries")) {
		t.Fatalf("merged after poison: %v\n%s", err, merged)
	}
}

// TestFleetDoc covers /api/fleet: liveness tracks heartbeat recency,
// throughput and ETA come from live workers' completed shards.
func TestFleetDoc(t *testing.T) {
	d, clock := mustDispatcher(t, Options{})
	spec := testSpec(4)
	if _, err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	a := d.Register(RegisterRequest{Name: "a", Capacity: 2})
	b := d.Register(RegisterRequest{Name: "b", Capacity: 1})
	if _, err := d.Book(BookRequest{WorkerID: a.WorkerID, Max: 2}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	if _, err := d.Heartbeat(HeartbeatRequest{WorkerID: a.WorkerID, Executing: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord(spec.Cells[0])
	if _, err := d.Result(ResultRequest{WorkerID: a.WorkerID, CampaignID: spec.ID(), Shard: 0, Record: rec}); err != nil {
		t.Fatal(err)
	}

	if v, ok := d.Registry().Value("fabric_heartbeats_total"); !ok || v != 1 {
		t.Fatalf("fabric_heartbeats_total = %v (%v), want 1", v, ok)
	}
	fleet := d.Fleet()
	if fleet.Total != 4 || fleet.Done != 1 || fleet.Counts["executing"] != 1 {
		t.Fatalf("fleet counts: %+v", fleet)
	}
	if len(fleet.Workers) != 2 || !fleet.Workers[0].Live || !fleet.Workers[1].Live {
		t.Fatalf("fleet workers: %+v", fleet.Workers)
	}
	if fleet.Workers[1].ID != b.WorkerID {
		t.Fatalf("worker order: %+v", fleet.Workers)
	}
	wa := fleet.Workers[0]
	if wa.ID != a.WorkerID || wa.ShardsDone != 1 || wa.Busy != 1 || wa.ShardsPerMin != 6 {
		t.Fatalf("worker a row: %+v (want 1 done, busy 1, 6 shards/min)", wa)
	}
	// remaining 3 at 0.1 shards/s aggregate → 30 s.
	if fleet.ETASeconds != 30 {
		t.Fatalf("ETA = %v, want 30", fleet.ETASeconds)
	}

	// b goes silent past one lease: dead, and the liveness gauges agree.
	clock.Advance(25 * time.Second)
	fleet = d.Fleet()
	if !fleet.Workers[0].Live || fleet.Workers[1].Live {
		t.Fatalf("liveness after silence: %+v", fleet.Workers)
	}
	if v, ok := d.Registry().Value("fabric_workers", "live"); !ok || v != 1 {
		t.Fatalf("fabric_workers{live} = %v (%v), want 1", v, ok)
	}
	if v, ok := d.Registry().Value("fabric_workers", "dead"); !ok || v != 1 {
		t.Fatalf("fabric_workers{dead} = %v (%v), want 1", v, ok)
	}
}

// TestFleetTraceChrome renders a faulted campaign's timeline through the
// Chrome exporter and checks structural validity: every lane's spans are
// monotone and non-overlapping, the killed attempt is aborted, the
// fault markers are present, and both workers got their own process.
func TestFleetTraceChrome(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "q.journal")
	d, clock := mustDispatcher(t, Options{JournalPath: jp, Logger: testLogger(t)})
	spec := testSpec(2)
	if _, err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	a := d.Register(RegisterRequest{Name: "a", Capacity: 1})
	b := d.Register(RegisterRequest{Name: "b", Capacity: 2})
	if _, err := d.Book(BookRequest{WorkerID: a.WorkerID, Max: 1}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, err := d.Heartbeat(HeartbeatRequest{WorkerID: a.WorkerID, Executing: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// a dies; its shard requeues and b runs everything.
	clock.Advance(31 * time.Second)
	resp, err := d.Book(BookRequest{WorkerID: b.WorkerID, Max: 2})
	if err != nil || len(resp.Shards) != 2 {
		t.Fatalf("book after expiry: %+v, %v", resp, err)
	}
	clock.Advance(2 * time.Second)
	if _, err := d.Heartbeat(HeartbeatRequest{WorkerID: b.WorkerID, Executing: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Second)
	for _, sh := range resp.Shards {
		r := fakeRecord(sh.Cell)
		if _, err := d.Result(ResultRequest{WorkerID: b.WorkerID, CampaignID: spec.ID(), Shard: sh.Index, Record: r}); err != nil {
			t.Fatal(err)
		}
	}

	doc := d.Timeline()
	spans, markers := FleetTraceData(doc)
	var gz bytes.Buffer
	if err := trace.WriteFleetChrome(&gz, spans, markers); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(gz.Bytes(), &chrome); err != nil {
		t.Fatalf("fleet trace is not JSON: %v", err)
	}

	processes := map[string]bool{}
	laneEnd := map[[2]int]float64{}
	markerNames := map[string]bool{}
	abortedSeen := false
	for _, ev := range chrome.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				processes[ev.Args["name"].(string)] = true
			}
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("span %q has negative time: ts=%g dur=%g", ev.Name, ev.Ts, ev.Dur)
			}
			key := [2]int{ev.Pid, ev.Tid}
			if ev.Ts < laneEnd[key] {
				t.Fatalf("lane %v not monotone: span %q at %g overlaps previous end %g", key, ev.Name, ev.Ts, laneEnd[key])
			}
			laneEnd[key] = ev.Ts + ev.Dur
			if ab, _ := ev.Args["aborted"].(bool); ab {
				abortedSeen = true
			}
		case "i":
			markerNames[ev.Name] = true
		}
	}
	if !processes["worker "+a.WorkerID] || !processes["worker "+b.WorkerID] {
		t.Fatalf("worker processes missing: %v", processes)
	}
	if !markerNames[EventLeaseExpired] || !markerNames[EventRequeued] {
		t.Fatalf("fault markers missing: %v", markerNames)
	}
	if !abortedSeen {
		t.Fatal("the killed attempt's span is not marked aborted")
	}
}

// TestJournalWithoutEventsStillLoads pins backward compatibility: a
// journal from before the timeline (spec + done entries only) resumes
// with empty histories and no spurious requeue events.
func TestJournalWithoutEventsStillLoads(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "old.journal")
	spec := testSpec(2)
	rec := fakeRecord(spec.Cells[0])
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range []journalEntry{
		{T: "spec", CampaignID: spec.ID(), Spec: &spec},
		{T: "done", Shard: 0, Worker: "a", Attempts: 1, Record: &rec},
	} {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(jp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, clock := mustDispatcher(t, Options{JournalPath: jp, Logger: testLogger(t)})
	_ = clock
	tl := d.Timeline()
	if len(tl.Shards) != 2 || tl.Shards[0].State != "completed" || tl.Shards[1].State != "queued" {
		t.Fatalf("old journal resume: %+v", tl.Shards)
	}
	if len(tl.Shards[0].Events) != 0 || len(tl.Shards[1].Events) != 0 {
		t.Fatalf("old journal grew events: %+v", tl.Shards)
	}
}

// TestWaitMergedCampaignUnknown pins the fixed failure mode: a
// dispatcher that answers but knows no campaign (restarted without its
// journal) fails the wait immediately with ErrCampaignUnknown instead
// of polling forever.
func TestWaitMergedCampaignUnknown(t *testing.T) {
	d, _ := mustDispatcher(t, Options{})
	mux := http.NewServeMux()
	for pat, h := range d.Handlers() {
		mux.Handle(pat, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := client.WaitMerged(ctx, "deadbeef", 10*time.Millisecond, nil)
	if !errors.Is(err, ErrCampaignUnknown) {
		t.Fatalf("WaitMerged error = %v, want ErrCampaignUnknown", err)
	}
	if ctx.Err() != nil {
		t.Fatal("WaitMerged only failed because the context expired")
	}
	if !strings.Contains(err.Error(), "deadbeef") {
		t.Fatalf("error does not name the campaign: %v", err)
	}
}
