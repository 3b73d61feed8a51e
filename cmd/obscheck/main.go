// Command obscheck validates observability artifacts produced by the
// campaign fabric, for use in smoke tests and CI:
//
//	obscheck -metrics dump.prom -require fabric_lease_expiries_total,fabric_shards_requeued_total
//	obscheck -timeline timeline.json -require-events lease_expired,requeued
//	obscheck -chrome fleet.json.gz -require-marker lease_expired -require-process "worker w"
//
// -metrics checks the file is well-formed Prometheus text exposition and
// that every -require metric is present with a positive value on at
// least one sample. -timeline checks the file decodes as a fabric
// timeline document with per-shard non-decreasing event times, and that
// every -require-events kind occurs. -chrome checks the file (gzipped
// when named .gz) is valid Chrome trace-event JSON whose lanes hold
// monotone, non-overlapping complete spans, and that the required
// instant marker and process names occur. Any violation exits nonzero
// with a diagnostic.
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"chicsim/internal/fabric"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
)

func main() {
	metrics := flag.String("metrics", "", "Prometheus text file to validate")
	require := flag.String("require", "", "comma-separated metric names that must have a positive sample (with -metrics)")
	timeline := flag.String("timeline", "", "fabric /api/timeline JSON file to validate")
	requireEvents := flag.String("require-events", "", "comma-separated event kinds that must occur (with -timeline)")
	chrome := flag.String("chrome", "", "Chrome trace-event JSON file to validate (.gz transparently gunzipped)")
	requireMarker := flag.String("require-marker", "", "instant-marker name that must occur (with -chrome)")
	requireProcess := flag.String("require-process", "", "substring some process_name must contain (with -chrome)")
	obs.ParseFlags(flag.CommandLine, os.Args[1:])

	ran := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "obscheck: "+format+"\n", args...)
		os.Exit(1)
	}
	if *metrics != "" {
		ran = true
		if err := checkMetrics(*metrics, splitList(*require)); err != nil {
			fail("%s: %v", *metrics, err)
		}
		fmt.Printf("obscheck: %s ok\n", *metrics)
	}
	if *timeline != "" {
		ran = true
		if err := checkTimeline(*timeline, splitList(*requireEvents)); err != nil {
			fail("%s: %v", *timeline, err)
		}
		fmt.Printf("obscheck: %s ok\n", *timeline)
	}
	if *chrome != "" {
		ran = true
		if err := checkChrome(*chrome, *requireMarker, *requireProcess); err != nil {
			fail("%s: %v", *chrome, err)
		}
		fmt.Printf("obscheck: %s ok\n", *chrome)
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check (pass -metrics, -timeline, or -chrome)")
		os.Exit(2)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// open reads a whole file, gunzipping when the name ends in .gz.
func open(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("gunzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	return io.ReadAll(r)
}

// checkMetrics validates Prometheus text exposition and required names.
func checkMetrics(path string, required []string) error {
	data, err := open(path)
	if err != nil {
		return err
	}
	if err := registry.CheckText(strings.NewReader(string(data))); err != nil {
		return err
	}
	// Positive-sample check: the metric exists and observed something.
	positive := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > 0 {
			positive[name] = true
		}
	}
	for _, name := range required {
		if !positive[name] {
			return fmt.Errorf("required metric %s missing or zero", name)
		}
	}
	return nil
}

// checkTimeline validates a fabric timeline document: shard events must
// be non-decreasing in time, attempts must not regress, and every
// required event kind must occur somewhere in the campaign.
func checkTimeline(path string, requiredKinds []string) error {
	data, err := open(path)
	if err != nil {
		return err
	}
	var doc fabric.TimelineDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("not a timeline document: %w", err)
	}
	if len(doc.Shards) == 0 {
		return fmt.Errorf("timeline has no shards (campaign %q, phase %q)", doc.CampaignID, doc.Phase)
	}
	seen := make(map[string]bool)
	for _, sh := range doc.Shards {
		var prev time.Time
		prevAttempt := 0
		for i, ev := range sh.Events {
			if ev.Kind == "" || ev.T.IsZero() {
				return fmt.Errorf("shard %d event %d is blank (%+v)", sh.Index, i, ev)
			}
			if ev.T.Before(prev) {
				return fmt.Errorf("shard %d events not monotone: %s at %s after %s", sh.Index, ev.Kind, ev.T, prev)
			}
			if ev.Attempt < prevAttempt {
				return fmt.Errorf("shard %d attempt regressed at event %d (%d -> %d)", sh.Index, i, prevAttempt, ev.Attempt)
			}
			prev, prevAttempt = ev.T, ev.Attempt
			seen[ev.Kind] = true
		}
	}
	for _, kind := range requiredKinds {
		if !seen[kind] {
			return fmt.Errorf("required event kind %q never occurred", kind)
		}
	}
	return nil
}

// traceEvent mirrors the Chrome trace-event fields obscheck validates.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// checkChrome validates a Chrome trace-event file: per (pid, tid) lane,
// complete spans must be monotone and non-overlapping.
func checkChrome(path, requireMarker, requireProcess string) error {
	data, err := open(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("not Chrome trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace has no events")
	}
	type lane struct{ pid, tid int }
	spans := make(map[lane][]traceEvent)
	markerSeen, processSeen := false, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 {
				return fmt.Errorf("span %q has negative duration %g", ev.Name, ev.Dur)
			}
			spans[lane{ev.Pid, ev.Tid}] = append(spans[lane{ev.Pid, ev.Tid}], ev)
		case "i":
			if ev.Name == requireMarker {
				markerSeen = true
			}
		case "M":
			if ev.Name == "process_name" && requireProcess != "" {
				if n, _ := ev.Args["name"].(string); strings.Contains(n, requireProcess) {
					processSeen = true
				}
			}
		}
	}
	for l, evs := range spans {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].Ts + evs[i-1].Dur
			if evs[i].Ts < prevEnd {
				return fmt.Errorf("lane pid=%d tid=%d overlaps: %q at %g starts before %q ends at %g",
					l.pid, l.tid, evs[i].Name, evs[i].Ts, evs[i-1].Name, prevEnd)
			}
		}
	}
	if requireMarker != "" && !markerSeen {
		return fmt.Errorf("required marker %q never occurred", requireMarker)
	}
	if requireProcess != "" && !processSeen {
		return fmt.Errorf("no process_name contains %q", requireProcess)
	}
	return nil
}
