// Command griddispatch runs the campaign fabric dispatcher: it owns the
// shard queue for one campaign at a time, leases shards to gridworker
// daemons, requeues shards whose worker died, and merges streamed
// CellRecords back into the canonical JSONL a single-process gridsweep
// run would have written.
//
// Usage:
//
//	griddispatch -listen :7171 -journal campaign.journal
//
// Submit work with `gridsweep -dispatch http://host:7171 ...` and start
// one or more `gridworker -dispatcher http://host:7171` daemons. The
// journal makes a partial campaign resumable: restart griddispatch with
// the same -journal and completed shards are not re-run.
//
// The listener also serves the monitor surface: /metrics (Prometheus,
// including shard-state and worker-liveness gauges), /status (fabric
// state JSON), /api/timeline (per-shard event history), /api/fleet
// (live fleet status), /events (SSE shard lifecycle + fleet events).
// Logs are structured (-log-level, -log-format) with campaign, shard,
// and worker attributes on every line.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"chicsim/internal/fabric"
	"chicsim/internal/obs"
	"chicsim/internal/obs/logging"
	"chicsim/internal/obs/monitor"
)

func main() {
	listen := flag.String("listen", ":7171", "dispatcher listen address")
	journal := flag.String("journal", "", "queue journal path (JSONL); resumes the campaign in it if present")
	lease := flag.Float64("lease", 60, "shard lease duration (s); a worker silent this long forfeits its shards")
	maxAttempts := flag.Int("max-attempts", 5, "bookings per shard before it is abandoned as failed")
	mergedOut := flag.String("out", "", "also write the merged canonical JSONL stream to this file")
	manifestOut := flag.String("manifest", "", "write a merged run manifest (worker/shard provenance) to this file")
	quiet := flag.Bool("quiet", false, "suppress per-shard log lines (same as -log-level error)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/ on the listener")
	logFlags := logging.BindFlags(flag.CommandLine)
	obs.ParseFlags(flag.CommandLine, os.Args[1:])

	if *quiet {
		logFlags.Level = "error"
	}
	logger, err := logFlags.Logger("griddispatch")
	if err != nil {
		fmt.Fprintln(os.Stderr, "griddispatch:", err)
		os.Exit(1)
	}

	d, err := fabric.NewDispatcher(fabric.Options{
		LeaseSeconds: *lease,
		MaxAttempts:  *maxAttempts,
		JournalPath:  *journal,
		MergedPath:   *mergedOut,
		ManifestPath: *manifestOut,
		Logger:       logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "griddispatch:", err)
		os.Exit(1)
	}
	var extra []map[string]http.Handler
	if *pprofOn {
		extra = append(extra, monitor.PprofHandlers())
	}
	srv, err := fabric.Serve(*listen, d, extra...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "griddispatch:", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", srv.Addr(),
		"routes", "/api /api/timeline /api/fleet /metrics /status /events",
		slog.Float64("lease_s", *lease))

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	logger.Info("shutting down (journal keeps completed shards)")
	srv.Close()
}
