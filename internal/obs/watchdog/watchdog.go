// Package watchdog runs online invariant checks over a live simulation.
//
// A conservation bug — jobs leaking out of the submitted/queued/running/
// completed ledger, replicas the storage accounting lost track of, a link
// carrying more than its capacity — is caught after a run today by
// dgetrace -validate, long after thousands of virtual seconds of
// plausible-looking numbers were produced. The watchdog moves those
// checks online: the owning simulation registers closures over its own
// state and ticks the watchdog on its ObsInterval cadence, so a broken
// scheduler change dies loudly mid-run (Fail mode) or at least announces
// itself (Warn mode) instead of quietly corrupting a campaign.
//
// The watchdog is driven strictly from the simulation goroutine: checks
// read simulation state that must not be touched concurrently, and the
// tick is an ordinary deterministic engine event. Attaching a watchdog to
// a healthy run therefore changes nothing about its Results.
package watchdog

import (
	"fmt"
	"strings"
)

// Mode selects what a violation does to the run.
type Mode int

const (
	// Off disables the watchdog entirely.
	Off Mode = iota
	// Warn reports violations (observer callback and count) and lets
	// the run continue.
	Warn
	// Fail stops the run at the first violating tick: Tick returns an
	// error the simulation must treat as fatal.
	Fail
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Warn:
		return "warn"
	case Fail:
		return "fail"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a flag value ("off", "warn", "fail") to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return Off, nil
	case "warn":
		return Warn, nil
	case "fail":
		return Fail, nil
	default:
		return Off, fmt.Errorf("watchdog: unknown mode %q (want off, warn, or fail)", s)
	}
}

// Violation is one failed invariant at one tick.
type Violation struct {
	T      float64 `json:"t"`      // virtual time of the tick
	Check  string  `json:"check"`  // invariant name
	Detail string  `json:"detail"` // what disagreed with what
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.0f %s: %s", v.T, v.Check, v.Detail)
}

// Config parameterizes a watchdog.
type Config struct {
	Mode Mode
	// OnViolation, when non-nil, observes every violation as it is found
	// (monitor event streams, logs). Called from the simulation
	// goroutine.
	OnViolation func(Violation)
}

// Watchdog evaluates registered invariant checks. Not safe for concurrent
// use; it belongs to the simulation goroutine.
type Watchdog struct {
	mode        Mode
	onViolation func(Violation)

	checks []check

	lastT  float64
	ticked bool
	count  int
}

type check struct {
	name string
	fn   func() string
}

// New builds a watchdog; a Config with Mode Off returns a watchdog whose
// Tick is a cheap no-op, so call sites need no nil guards.
func New(cfg Config) *Watchdog {
	return &Watchdog{mode: cfg.Mode, onViolation: cfg.OnViolation}
}

// Register adds an invariant. fn returns "" while the invariant holds and
// a human-readable detail string when it does not. Checks run in
// registration order.
func (w *Watchdog) Register(name string, fn func() string) {
	if fn == nil {
		panic(fmt.Sprintf("watchdog: check %q with nil function", name))
	}
	w.checks = append(w.checks, check{name: name, fn: fn})
}

// Tick evaluates every check at virtual time t, plus the built-in
// virtual-time monotonicity invariant. In Fail mode the first violating
// tick returns an error summarizing that tick's violations; in Warn mode
// Tick always returns nil.
func (w *Watchdog) Tick(t float64) error {
	if w.mode == Off {
		return nil
	}
	var fired []Violation
	if w.ticked && t < w.lastT {
		fired = append(fired, Violation{T: t, Check: "time_monotonic",
			Detail: fmt.Sprintf("tick at t=%v after t=%v", t, w.lastT)})
	}
	w.lastT, w.ticked = t, true
	for _, c := range w.checks {
		if detail := c.fn(); detail != "" {
			fired = append(fired, Violation{T: t, Check: c.name, Detail: detail})
		}
	}
	for _, v := range fired {
		w.count++
		if w.onViolation != nil {
			w.onViolation(v)
		}
	}
	if len(fired) > 0 && w.mode == Fail {
		details := make([]string, len(fired))
		for i, v := range fired {
			details[i] = v.String()
		}
		return fmt.Errorf("watchdog: %d invariant violation(s): %s",
			len(fired), strings.Join(details, "; "))
	}
	return nil
}

// Count returns the total violations seen.
func (w *Watchdog) Count() int { return w.count }
