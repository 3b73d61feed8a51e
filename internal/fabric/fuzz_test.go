package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// journalBytes writes entries as a journal would, one JSON line each.
func journalBytes(t testing.TB, entries ...journalEntry) []byte {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return []byte(b.String())
}

// TestJournalSpecValidated: a journal whose spec entry Submit would have
// refused — no cells, an unknown ES — fails the dispatcher's start with a
// one-line error instead of resuming that campaign.
func TestJournalSpecValidated(t *testing.T) {
	empty := testSpec(1)
	empty.Cells = nil
	unknownES := testSpec(2)
	unknownES.Cells[1].ES = "JobNowhere"
	for _, tc := range []struct {
		spec CampaignSpec
		want string
	}{
		{empty, "campaign has no cells"},
		{unknownES, `unknown ES "JobNowhere"`},
	} {
		path := filepath.Join(t.TempDir(), "queue.journal")
		if err := os.WriteFile(path, journalBytes(t, journalEntry{T: "spec", Spec: &tc.spec}), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewDispatcher(Options{JournalPath: path})
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("resuming a journal with %s: err = %v, want one line naming it", tc.want, err)
		}
	}
}

// FuzzLoadJournal: a dispatcher started on arbitrary journal bytes either
// refuses them with an error or serves State and Merged without
// panicking.
func FuzzLoadJournal(f *testing.F) {
	spec := testSpec(2)
	record := fakeRecord(spec.Cells[0])
	f.Add(journalBytes(f,
		journalEntry{T: "spec", CampaignID: spec.ID(), Spec: &spec},
		journalEntry{T: "event", Shard: 0, Event: &ShardEvent{Kind: EventBooked, Worker: "w", Attempt: 1}},
		journalEntry{T: "done", Shard: 0, Worker: "w", Attempts: 1, Record: &record}))
	one := testSpec(1)
	f.Add(journalBytes(f,
		journalEntry{T: "spec", Spec: &one},
		journalEntry{T: "done", Shard: 0, Record: &record},
		journalEntry{T: "merged"}))
	f.Add(journalBytes(f, journalEntry{T: "done", Shard: 3, Record: &record}))
	f.Add([]byte(`{"t":"spec","spec":{"cells":[],"seeds":[1]}}`))
	f.Add([]byte(`{"t":"spec","spec":{"cells":[{"ES":"JobRandom","DS":"DataRandom"}],"seeds":[1]}}` + "\n" + `{"t":"do`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "queue.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := NewDispatcher(Options{JournalPath: path, Now: func() time.Time { return time.Unix(0, 0) }})
		if err != nil {
			return
		}
		d.State()
		d.Merged()
	})
}

// FuzzHandlers: a POST of arbitrary bytes to any of the dispatcher's
// mutating routes is answered with a 2xx or a 4xx and a JSON body, never
// a panic or a 5xx. Each input runs on a fresh journal-less dispatcher;
// for every route but submit it already holds a two-shard campaign and a
// worker, "w1-w", that has booked shard 0, so bodies that decode reach
// the queue's live state.
func FuzzHandlers(f *testing.F) {
	routes := []string{"/api/submit", "/api/register", "/api/book", "/api/heartbeat", "/api/result"}
	spec := testSpec(2)
	spec.Cells[1].Param, spec.Cells[1].Level = "ls", "SJF"
	asJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(uint8(0), asJSON(spec))
	f.Add(uint8(1), asJSON(RegisterRequest{Name: "w2", Host: "h", PID: 7, Capacity: 2}))
	f.Add(uint8(2), asJSON(BookRequest{WorkerID: "w1-w", Max: 2}))
	f.Add(uint8(3), asJSON(HeartbeatRequest{WorkerID: "w1-w", Executing: []int{0}}))
	f.Add(uint8(4), asJSON(ResultRequest{WorkerID: "w1-w", CampaignID: spec.ID(), Shard: 0, Record: fakeRecord(spec.Cells[0])}))
	f.Add(uint8(4), asJSON(ResultRequest{WorkerID: "w1-w", CampaignID: spec.ID(), Shard: 1, Record: fakeRecord(spec.Cells[0])}))
	f.Add(uint8(0), []byte(`{"cells":[{"ES":"JobRandom","DS":"DataRandom","Param":"ls","Level":"FIFO"}],"seeds":[1]}`))
	f.Add(uint8(2), []byte(`{"worker_id":`))
	f.Add(uint8(3), []byte(`null`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		d, err := NewDispatcher(Options{Now: func() time.Time { return time.Unix(0, 0) }})
		if err != nil {
			t.Fatal(err)
		}
		path := routes[int(route)%len(routes)]
		if path != "/api/submit" {
			if _, err := d.Submit(spec); err != nil {
				t.Fatal(err)
			}
			reg := d.Register(RegisterRequest{Name: "w", Capacity: 2})
			if _, err := d.Book(BookRequest{WorkerID: reg.WorkerID, Max: 1}); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		d.Handlers()[path].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if class := rec.Code / 100; class != 2 && class != 4 {
			t.Fatalf("POST %s %q: status %d, want 2xx or 4xx", path, body, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST %s %q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body.Bytes())
		}
	})
}
