package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"chicsim/internal/core"
)

// FuzzReadStream feeds arbitrary bytes to ReadStream, the reader behind
// `gridsweep -from-jsonl`. It must never panic, and whatever it returns,
// on success or alongside an error, must re-encode and re-read to the
// same records. The seeds' damaged streams (a truncated tail, a non-JSON
// line) must be rejected with the intact records before the damage kept.
func FuzzReadStream(f *testing.F) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, cr := range []CellResult{
		{Cell: Cell{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10}, AvgResponseSec: 812.5, Runs: []core.Results{{}}},
		{Cell: Cell{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10, SiteMTBF: 3600}, Err: errors.New("core: Sites = 0")},
		{Cell: Cell{ES: "JobLocal", DS: "DataDoNothing", BandwidthMBps: 100, Param: "storage", Value: 10}, AvgIdleFrac: 0.25},
		{Cell: Cell{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10, Param: "batch", Level: "BatchMinMin"}, Runs: []core.Results{{Seed: 2}}},
	} {
		if err := enc.Encode(RecordOf(&cr)); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.String()
	lastLine := strings.LastIndex(strings.TrimSuffix(valid, "\n"), "\n") + 1
	for _, c := range []struct {
		name, in string
		keep     int
	}{
		{"truncated tail", valid[:len(valid)-9], 3},
		{"non-JSON line", valid[:lastLine] + "cell 4 lost\n" + valid[lastLine:], 3},
	} {
		got, err := ReadStream(strings.NewReader(c.in))
		if err == nil || len(got) != c.keep {
			f.Errorf("%s: %d records, err %v; want %d records and an error", c.name, len(got), err, c.keep)
		}
		f.Add(c.in)
	}
	if got, err := ReadStream(strings.NewReader(valid)); err != nil || len(got) != 4 {
		f.Fatalf("valid stream: %d records, err %v", len(got), err)
	}
	f.Add(valid)
	f.Add(`{"cell":{"ES":"x"},"runs":[{"Jobs":-1}]}` + "\n" + `[]`)
	f.Add(`{"err":""}{"cell":null}`)

	f.Fuzz(func(t *testing.T, in string) {
		got, _ := ReadStream(strings.NewReader(in))
		var once bytes.Buffer
		enc := json.NewEncoder(&once)
		for i := range got {
			if err := enc.Encode(RecordOf(&got[i])); err != nil {
				t.Fatalf("record %d does not re-encode: %v", i+1, err)
			}
		}
		again, err := ReadStream(bytes.NewReader(once.Bytes()))
		if err != nil || len(again) != len(got) {
			t.Fatalf("re-read %d of %d records, err %v", len(again), len(got), err)
		}
		var twice bytes.Buffer
		enc = json.NewEncoder(&twice)
		for i := range again {
			if err := enc.Encode(RecordOf(&again[i])); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("records changed on a second round trip:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
