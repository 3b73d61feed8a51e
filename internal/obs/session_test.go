package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chicsim/internal/obs/watchdog"
)

// TestSessionFinish opens a session with every file output and finishes
// it from two goroutines at once, as an interrupt racing the normal exit
// would: each output is written once, the manifest marked by the call
// that acted.
func TestSessionFinish(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		ManifestPath: filepath.Join(dir, "m.json"),
		MetricsPath:  filepath.Join(dir, "m.prom"),
		StreamPath:   filepath.Join(dir, "s.jsonl"),
		TracePath:    filepath.Join(dir, "t.jsonl"),
		WatchdogMode: "warn",
	}
	s, err := f.Start("test", map[string]int{"seed": 1}, []uint64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry == nil || s.Sink == nil || s.Trace == nil || s.Manifest == nil || s.Watchdog != watchdog.Warn {
		t.Fatalf("session misses an output its flags ask for: %+v", s)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, interrupted := range []bool{true, false} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Finish(interrupted)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{f.MetricsPath, f.StreamPath, f.TracePath} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("output not written: %v", err)
		}
	}
	js, err := os.ReadFile(f.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(js, &m); err != nil {
		t.Fatal(err)
	}
	if m.Command != "test" || m.Finished.IsZero() {
		t.Fatalf("manifest not finished: %s", js)
	}
}

// TestSessionStartErrors checks that Start rejects a bad watchdog mode
// and reports an output it cannot create.
func TestSessionStartErrors(t *testing.T) {
	if _, err := (&Flags{WatchdogMode: "bogus"}).Start("test", nil, nil, nil); err == nil {
		t.Fatal("bad -watchdog mode accepted")
	}
	dir := t.TempDir()
	f := &Flags{StreamPath: filepath.Join(dir, "s.csv"), TracePath: filepath.Join(dir, "no-such-dir", "t.jsonl")}
	if _, err := f.Start("test", nil, nil, nil); err == nil || !strings.Contains(err.Error(), "no-such-dir") {
		t.Fatalf("Start = %v, want the trace path's error", err)
	}
}
