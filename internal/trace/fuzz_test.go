package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadJSONL ensures the trace parser never panics and that anything it
// accepts can be re-serialized and re-parsed to the same event count. The
// reconstruction walk and everything built on its forest must not panic
// on any parsed input either (errors are fine).
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"t":1,"kind":"job_submitted","job":1}`)
	f.Add(`{"t":0,"kind":"fetch_start","file":3,"src":1,"dst":2}` + "\n" +
		`{"t":5,"kind":"fetch_end","file":3,"src":1,"dst":2,"bytes":1e9}`)
	f.Add(`{"t":-1,"kind":"evicted"}`)
	f.Add(`garbage`)
	// A cut log: job 2 still open at the marker.
	f.Add(jsonl(
		`{"t":0,"kind":"job_submitted","job":2}`,
		`{"t":0,"kind":"job_dispatched","job":2,"site":1}`,
		`{"t":3,"kind":"trace_cut"}`))
	f.Add(`{"kind":""}`)
	// The fault paths of the walk: a crash that kills an in-flight fetch
	// of a job rerun elsewhere; aborts of a fetch and of an output; a push
	// and a fetch of one file on one route, the push aborted and the fetch
	// aborted after its source's crash; a job retried then abandoned;
	// crash/recover, CE and link fault/repair pairs.
	f.Add(jsonl(
		`{"t":0,"kind":"job_submitted","job":1,"user":2}`,
		`{"t":0,"kind":"job_dispatched","job":1,"site":2}`,
		`{"t":1,"kind":"fetch_start","job":1,"file":3,"src":7,"dst":2}`,
		`{"t":4,"kind":"site_crashed","site":2}`,
		`{"t":4,"kind":"job_retried","job":1,"site":2}`,
		`{"t":6,"kind":"job_dispatched","job":1,"site":4}`,
		`{"t":6,"kind":"job_data_ready","job":1,"site":4}`,
		`{"t":7,"kind":"job_started","job":1,"site":4}`,
		`{"t":9,"kind":"site_recovered","site":2}`,
		`{"t":12,"kind":"job_completed","job":1,"site":4,"user":2}`))
	f.Add(jsonl(
		`{"t":0,"kind":"job_submitted","job":1}`,
		`{"t":0,"kind":"job_dispatched","job":1,"site":2}`,
		`{"t":1,"kind":"fetch_start","job":1,"file":3,"src":7,"dst":2}`,
		`{"t":2,"kind":"transfer_abort","file":3,"src":7,"dst":2}`,
		`{"t":3,"kind":"fetch_start","job":1,"file":3,"src":7,"dst":2}`,
		`{"t":5,"kind":"fetch_end","job":1,"file":3,"src":7,"dst":2,"bytes":1e9}`,
		`{"t":5,"kind":"job_data_ready","job":1,"site":2}`,
		`{"t":5,"kind":"job_started","job":1,"site":2}`,
		`{"t":8,"kind":"job_completed","job":1,"site":2}`,
		`{"t":8,"kind":"output_start","job":1,"src":2,"dst":7}`,
		`{"t":9,"kind":"transfer_abort","job":1,"file":-1,"src":2,"dst":7}`))
	f.Add(jsonl(
		`{"t":0,"kind":"fetch_start","job":2,"file":3,"src":7,"dst":2}`,
		`{"t":1,"kind":"repl_push","file":3,"src":7,"dst":2}`,
		`{"t":2,"kind":"repl_abort","file":3,"src":7,"dst":2}`,
		`{"t":3,"kind":"site_crashed","site":7}`,
		`{"t":4,"kind":"transfer_abort","job":2,"file":3,"src":7,"dst":2}`))
	f.Add(jsonl(
		`{"t":0,"kind":"job_submitted","job":4,"user":1}`,
		`{"t":0,"kind":"job_dispatched","job":4,"site":1}`,
		`{"t":2,"kind":"ce_failed","site":1}`,
		`{"t":3,"kind":"job_retried","job":4,"site":1}`,
		`{"t":5,"kind":"job_dispatched","job":4,"site":3}`,
		`{"t":6,"kind":"job_retried","job":4,"site":3}`,
		`{"t":6,"kind":"job_abandoned","job":4}`,
		`{"t":7,"kind":"ce_recovered","site":1}`))
	f.Add(jsonl(
		`{"t":0,"kind":"repl_push","file":2,"src":0,"dst":5}`,
		`{"t":1,"kind":"link_fault","src":9}`,
		`{"t":2,"kind":"site_crashed","site":5}`,
		`{"t":2,"kind":"replica_lost","site":5,"file":2}`,
		`{"t":3,"kind":"link_repair","src":9}`,
		`{"t":4,"kind":"site_recovered","site":5}`,
		`{"t":4,"kind":"evicted","site":0,"file":2}`))
	f.Fuzz(func(t *testing.T, input string) {
		l, err := ReadJSONL(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatalf("accepted log failed to serialize: %v", err)
		}
		l2, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if l2.Len() != l.Len() {
			t.Fatalf("round trip changed event count: %d -> %d", l.Len(), l2.Len())
		}
		forest, err := BuildSpans(l)
		if err != nil {
			return
		}
		forest.summarize()
		forest.CriticalPath()
		forest.DecompStats()
		if err := forest.WriteChrome(io.Discard, l); err != nil {
			t.Fatalf("chrome export of an accepted log: %v", err)
		}
	})
}

func jsonl(lines ...string) string { return strings.Join(lines, "\n") }
