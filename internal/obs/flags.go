package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"chicsim/internal/obs/watchdog"
)

// Flags is the shared observability flag block for commands: pprof
// profiling, probe-series output, and run-manifest emission. Bind it once
// per command with BindFlags so every binary exposes the same vocabulary.
type Flags struct {
	CPUProfile     string
	MemProfile     string
	SeriesPath     string  // -obs: CSV destination for the probe series
	SeriesInterval float64 // -obs-interval: virtual seconds between observation ticks
	StreamPath     string  // -obs-stream: incremental JSONL/CSV sample stream
	ManifestPath   string  // -manifest: JSON run-manifest destination
	TracePath      string  // -trace-out: DGE event-trace destination (.gz = gzip)
	ListenAddr     string  // -listen: live monitor HTTP address
	MetricsPath    string  // -metrics-out: final Prometheus-text registry snapshot
	WatchdogMode   string  // -watchdog: invariant watchdog mode (off, warn, fail)
	Pprof          bool    // -pprof: mount /debug/pprof/* on the -listen monitor
}

// BindFlags registers the shared observability flags on fs (use
// flag.CommandLine in main) and returns the destination struct.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.SeriesPath, "obs", "", "sample observability probes and write the time series to this CSV file")
	fs.Float64Var(&f.SeriesInterval, "obs-interval", 60, "virtual seconds between observation ticks: probe samples, metrics sync, watchdog checks")
	fs.StringVar(&f.StreamPath, "obs-stream", "", "stream probe samples to this file as they are taken (.csv extension selects CSV, anything else JSON Lines)")
	fs.StringVar(&f.ManifestPath, "manifest", "", "write a run manifest (config hash, seeds, git describe, timings) to this JSON file")
	fs.StringVar(&f.TracePath, "trace-out", "", "record the DGE event trace to this JSONL file (.gz gzips; analyze with dgetrace)")
	fs.StringVar(&f.ListenAddr, "listen", "", "serve live /metrics, /status, and /events on this address (e.g. 127.0.0.1:8080) while running")
	fs.StringVar(&f.MetricsPath, "metrics-out", "", "write a final Prometheus-text snapshot of the metrics registry to this file")
	fs.StringVar(&f.WatchdogMode, "watchdog", "off", "online invariant watchdog: off, warn (log and continue), fail (abort the run)")
	fs.BoolVar(&f.Pprof, "pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/ on the -listen monitor")
	return f
}

// ParseFlags parses args into fs the way every command does: silently,
// so a bad flag costs one line on stderr (prefixed by the command name,
// the base of fs.Name()) and exit status 2, and only -h prints the usage,
// then exits 0.
func ParseFlags(fs *flag.FlagSet, args []string) {
	name := filepath.Base(fs.Name())
	fs.Init(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(2)
	}
}

// Check rejects flag values no run can use; commands report its error as
// a usage error.
func (f *Flags) Check() error {
	if f.SeriesInterval < 0 {
		return fmt.Errorf("-obs-interval = %v, want >= 0", f.SeriesInterval)
	}
	_, err := watchdog.ParseMode(f.WatchdogMode)
	return err
}

// Observing reports whether any flag needs the observation tick: a probe
// series or stream, the metrics registry, or the watchdog. The runs then
// tick every SeriesInterval.
func (f *Flags) Observing() bool {
	mode, _ := watchdog.ParseMode(f.WatchdogMode)
	return f.SeriesPath != "" || f.StreamPath != "" || f.ListenAddr != "" ||
		f.MetricsPath != "" || mode != watchdog.Off
}

// startProfiling begins CPU profiling if requested. The returned stop
// function ends CPU profiling and writes the heap profile if requested;
// it is safe to call when neither profile was enabled.
func (f *Flags) startProfiling() (stop func() error, err error) {
	var cpu *os.File
	if f.CPUProfile != "" {
		cpu, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil && first == nil {
				first = err
			}
		}
		if f.MemProfile != "" {
			mem, err := os.Create(f.MemProfile)
			if err != nil {
				if first == nil {
					first = err
				}
			} else {
				runtime.GC() // settle allocations so the heap profile is meaningful
				if err := pprof.WriteHeapProfile(mem); err != nil && first == nil {
					first = err
				}
				if err := mem.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}, nil
}
