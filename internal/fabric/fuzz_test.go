package fabric

import (
	"encoding/json"
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
