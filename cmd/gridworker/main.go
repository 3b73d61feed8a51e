// Command gridworker is a campaign fabric worker daemon: it registers
// with a griddispatch dispatcher, pulls shard jobs whenever it has free
// capacity, executes each shard through the ordinary experiments.Run
// path, heartbeats while executing, and uploads CellRecords.
//
// Usage:
//
//	gridworker -dispatcher http://host:7171 -capacity 4 -listen :7172
//
// By default the daemon exits once the current campaign merges; -stay
// keeps it polling for future campaigns. -manifest writes a worker-side
// run manifest recording which shards this worker produced. -listen
// serves the worker's own monitor surface: /metrics (busy slots, upload
// outcomes/latency, heartbeats) and /status (what it is executing).
// Logs are structured (-log-level, -log-format).
//
// A -dispatcher URL that does not parse, or names no http(s) host, is a
// usage error (exit 2). A well-formed URL nobody answers on is not: the
// daemon keeps retrying its registration every 500 ms until a dispatcher
// comes up there.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"chicsim/internal/experiments"
	"chicsim/internal/fabric"
	"chicsim/internal/obs"
	"chicsim/internal/obs/logging"
	"chicsim/internal/obs/monitor"
)

func main() {
	dispatcher := flag.String("dispatcher", "http://127.0.0.1:7171", "dispatcher base URL")
	name := flag.String("name", "", "worker name for logs and provenance (default host:pid)")
	capacity := flag.Int("capacity", runtime.GOMAXPROCS(0), "shards executed concurrently")
	stay := flag.Bool("stay", false, "keep polling for new campaigns after the current one merges")
	listen := flag.String("listen", "", "serve the worker's /metrics and /status on this address")
	manifestOut := flag.String("manifest", "", "write a worker run manifest (shards produced) to this file")
	quiet := flag.Bool("quiet", false, "suppress per-shard log lines (same as -log-level error)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/ on -listen")
	logFlags := logging.BindFlags(flag.CommandLine)
	obs.ParseFlags(flag.CommandLine, os.Args[1:])
	if err := fabric.CheckBaseURL(*dispatcher); err != nil {
		fmt.Fprintln(os.Stderr, "gridworker: -dispatcher:", err)
		os.Exit(2)
	}

	if *quiet {
		logFlags.Level = "error"
	}
	logger, err := logFlags.Logger("gridworker")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridworker:", err)
		os.Exit(1)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	logger = logger.With("worker_name", *name)

	var mu sync.Mutex
	var produced []obs.ShardProvenance
	w := &fabric.Worker{
		Dispatcher: *dispatcher,
		Name:       *name,
		Capacity:   *capacity,
		KeepAlive:  *stay,
		Logger:     logger,
		OnShardDone: func(shard fabric.Shard, _ experiments.CellRecord) {
			mu.Lock()
			produced = append(produced, obs.ShardProvenance{
				Index: shard.Index, Cell: shard.Cell.String(), Worker: *name,
			})
			mu.Unlock()
		},
	}

	if *listen != "" {
		var extra map[string]http.Handler
		if *pprofOn {
			extra = monitor.PprofHandlers()
		}
		srv, err := monitor.StartMux(*listen, w.Metrics(), func() any { return w.Status() }, extra)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridworker:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("monitor listening", "addr", srv.Addr(), "routes", "/metrics /status /events")
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logger.Warn("interrupted; abandoning leases")
		cancel()
	}()

	var manifest *obs.Manifest
	if *manifestOut != "" {
		var err error
		manifest, err = obs.NewManifest("gridworker", map[string]any{"dispatcher": *dispatcher}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridworker:", err)
			os.Exit(1)
		}
		host, _ := os.Hostname()
		manifest.SetExtra("worker", *name)
		manifest.SetExtra("host", host)
		manifest.SetExtra("capacity", *capacity)
	}

	err = w.Run(ctx)
	if manifest != nil {
		mu.Lock()
		manifest.SetShards(produced)
		mu.Unlock()
		if err != nil {
			manifest.MarkInterrupted()
		}
		manifest.Finish()
		if werr := manifest.WriteFile(*manifestOut); werr != nil {
			fmt.Fprintln(os.Stderr, "gridworker:", werr)
		}
	}
	if err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, "gridworker:", err)
		os.Exit(1)
	}
}
