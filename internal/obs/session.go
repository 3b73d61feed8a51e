package obs

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"chicsim/internal/obs/monitor"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/trace"
)

// Session is what a command's Flags ask it to observe for one run or
// campaign: the metrics registry, the watchdog, the live monitor, the
// probe sample stream, the DGE trace, the run manifest and the pprof
// profiles. Start opens them all; Finish closes them all, on the normal
// exit and on an interrupt alike.
type Session struct {
	Registry *registry.Registry    // with -listen or -metrics-out
	Watchdog watchdog.Mode         // -watchdog
	Sink     Sink                  // -obs-stream
	Trace    *trace.StreamRecorder // -trace-out
	Manifest *Manifest             // -manifest

	command       string
	flags         *Flags
	server        *monitor.Server
	closeSink     func() error
	closeTrace    func(cut bool) error
	stopProfiling func() error

	mu       sync.Mutex
	finished bool
}

// Start opens everything f asks for. command prefixes the lines the
// session writes to stderr; config and seeds go into the manifest;
// status serves the monitor's /status. On an error Start closes what it
// opened.
func (f *Flags) Start(command string, config any, seeds []uint64, status func() any) (_ *Session, err error) {
	mode, err := watchdog.ParseMode(f.WatchdogMode)
	if err != nil {
		return nil, err
	}
	s := &Session{Watchdog: mode, command: command, flags: f}
	if f.ListenAddr != "" || f.MetricsPath != "" {
		s.Registry = registry.New()
	}
	if f.ManifestPath != "" {
		if s.Manifest, err = NewManifest(command, config, seeds); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err == nil {
			return
		}
		if s.closeSink != nil {
			s.closeSink()
		}
		if s.closeTrace != nil {
			s.closeTrace(false)
		}
		if s.server != nil {
			s.server.Close()
		}
	}()
	if s.Sink, s.closeSink, err = f.OpenStreamSink(); err != nil {
		return nil, err
	}
	if f.TracePath != "" {
		w, err := trace.CreateWriter(f.TracePath)
		if err != nil {
			return nil, err
		}
		s.Trace = trace.NewStreamRecorder(w)
		s.closeTrace = func(cut bool) error {
			end := s.Trace.Flush
			if cut {
				end = s.Trace.Cut
			}
			if err := end(); err != nil {
				w.Close()
				return err
			}
			return w.Close()
		}
	}
	if f.ListenAddr != "" {
		var extra map[string]http.Handler
		if f.Pprof {
			extra = monitor.PprofHandlers()
		}
		if s.server, err = monitor.StartMux(f.ListenAddr, s.Registry, status, extra); err != nil {
			return nil, err
		}
	}
	if s.stopProfiling, err = f.startProfiling(); err != nil {
		return nil, err
	}
	if s.server != nil {
		fmt.Fprintf(os.Stderr, "%s: monitor listening on http://%s (/metrics /status /events)\n", command, s.server.Addr())
	}
	return s, nil
}

// Publish sends an event to the monitor's /events stream, if one runs.
func (s *Session) Publish(event string, data any) {
	if s.server != nil {
		s.server.Publish(event, data)
	}
}

// Violation reports a watchdog violation: one line on stderr, where
// (the cell and seed of a campaign run, "" for a single run) before it,
// and event as a "violation" event to the monitor.
func (s *Session) Violation(where string, v watchdog.Violation, event any) {
	fmt.Fprintf(os.Stderr, "%s: watchdog: %s%v\n", s.command, where, v)
	s.Publish("violation", event)
}

// ExitOnInterrupt makes SIGINT or SIGTERM flush the command's own output
// (flush may be nil), finish the session marked interrupted and exit
// with status 130, so a cut run still leaves usable partial output.
func (s *Session) ExitOnInterrupt(flush func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "%s: interrupted; flushing partial results\n", s.command)
		if flush != nil {
			flush()
		}
		if err := s.Finish(true); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.command, err)
		}
		os.Exit(130)
	}()
}

// Finish stops the profiles, closes the sample stream and the trace,
// writes the metrics snapshot and the manifest and stops the monitor.
// When the run was cut short, the manifest is marked interrupted and the
// trace ends in a cut marker, after which the still running simulation
// records nothing. Only the first call
// acts; it returns the first error.
func (s *Session) Finish(interrupted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil
	}
	s.finished = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(s.stopProfiling())
	if s.closeSink != nil {
		keep(s.closeSink())
	}
	if s.closeTrace != nil {
		if err := s.closeTrace(interrupted); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote %d trace events to %s\n", s.command, s.Trace.Recorded(), s.flags.TracePath)
		}
	}
	if path := s.flags.MetricsPath; path != "" {
		if err := writeMetrics(s.Registry, path); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote metrics snapshot to %s\n", s.command, path)
		}
	}
	if s.Manifest != nil {
		if interrupted {
			s.Manifest.MarkInterrupted()
		}
		s.Manifest.Finish()
		keep(s.Manifest.WriteFile(s.flags.ManifestPath))
	}
	if s.server != nil {
		s.server.Close()
	}
	return first
}

// writeMetrics writes the registry as Prometheus text to path.
func writeMetrics(reg *registry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := registry.WritePrometheus(f, reg.Gather())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
