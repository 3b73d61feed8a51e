// Package faults is a deterministic, seed-reproducible fault injector
// for the grid simulation. It schedules fault and repair events on the
// desim engine, drawing every inter-fault gap, target choice, and repair
// delay from named sub-streams of the simulation's own seeded RNG — so a
// faulted run is bit-identical for a given seed regardless of how many
// worker goroutines run *other* simulations.
//
// The package knows nothing about sites, links, or jobs concretely: the
// simulation hands it an Actions implementation, and the injector only
// decides *when* each fault class strikes and *which* integer target it
// hits. All semantic consequences (killing jobs, reflowing transfers,
// invalidating catalog entries) live behind Actions, which keeps the
// dependency arrow pointing from core to faults and not back.
package faults

import (
	"fmt"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
)

// Spec parameterises one fault class as a pair of exponential
// distributions: mean time between faults and mean time to repair, both
// in virtual seconds. MTBF <= 0 disables the class. The MTBF clock is
// per grid, not per element: with MTBF 3600 some element somewhere
// faults about once an hour.
type Spec struct {
	MTBF float64 `json:"mtbf"`
	MTTR float64 `json:"mttr,omitempty"`
}

// Enabled reports whether the class injects faults at all.
func (sp Spec) Enabled() bool { return sp.MTBF > 0 }

// Config holds every fault knob. The zero value disables injection
// entirely and must leave a simulation byte-identical to one built
// before this package existed.
type Config struct {
	// SiteCrash takes a whole site down: running jobs are killed, queued
	// jobs are dropped (or kept for requeue, see RequeueOnRecovery), and
	// cached replicas are lost. Master copies survive — they live on the
	// site's mass-storage system, which stays reachable while the
	// compute front-end is down.
	SiteCrash Spec `json:"site_crash,omitzero"`
	// CEFailure takes one compute element at a site offline. If every CE
	// is busy, the most recently dispatched running job is killed and
	// retried elsewhere.
	CEFailure Spec `json:"ce_failure,omitzero"`
	// LinkDegrade multiplies a link's bandwidth by DegradeFactor until
	// repair; in-flight transfers reflow at the reduced rate.
	LinkDegrade Spec `json:"link_degrade,omitzero"`
	// LinkOutage drops a link's bandwidth to zero: transfers crossing it
	// stall (no progress, no completion event) until repair.
	LinkOutage Spec `json:"link_outage,omitzero"`
	// TransferAbort kills one in-flight transfer outright. Aborted input
	// fetches restart from the closest surviving replica; MTTR is unused.
	TransferAbort Spec `json:"transfer_abort,omitzero"`
	// ReplicaLoss silently corrupts one cached replica (disk failure):
	// the copy is dropped and deregistered from the catalog. Masters are
	// never lost. MTTR is unused.
	ReplicaLoss Spec `json:"replica_loss,omitzero"`

	// DegradeFactor is the bandwidth multiplier a LinkDegrade fault
	// applies, in (0,1). Defaults to 0.1.
	DegradeFactor float64 `json:"degrade_factor,omitempty"`

	// MaxRetries caps how many times the ES resubmits a failed job
	// before abandoning it. 0 means the default (3); use -1 to abandon
	// on first failure.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoff is the delay before the first resubmission; each
	// further retry doubles it, capped at RetryBackoffMax. Defaults:
	// 30s base, 600s cap.
	RetryBackoff    float64 `json:"retry_backoff,omitempty"`
	RetryBackoffMax float64 `json:"retry_backoff_max,omitempty"`

	// RequeueOnRecovery keeps a crashed site's queued jobs in its queue
	// and re-arms them (LS requeue) when the site comes back, instead of
	// failing them over to other sites.
	RequeueOnRecovery bool `json:"requeue_on_recovery,omitempty"`
	// RestoreReplicas lets the DS re-replicate popular files lost to
	// replica-loss faults at its next periodic evaluation.
	RestoreReplicas bool `json:"restore_replicas,omitempty"`
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.SiteCrash.Enabled() || c.CEFailure.Enabled() ||
		c.LinkDegrade.Enabled() || c.LinkOutage.Enabled() ||
		c.TransferAbort.Enabled() || c.ReplicaLoss.Enabled()
}

// Validate rejects configurations the injector cannot run.
func (c Config) Validate() error {
	classes := []struct {
		name        string
		spec        Spec
		needsRepair bool
	}{
		{"site_crash", c.SiteCrash, true},
		{"ce_failure", c.CEFailure, true},
		{"link_degrade", c.LinkDegrade, true},
		{"link_outage", c.LinkOutage, true},
		{"transfer_abort", c.TransferAbort, false},
		{"replica_loss", c.ReplicaLoss, false},
	}
	for _, cl := range classes {
		if cl.spec.MTBF < 0 || cl.spec.MTTR < 0 {
			return fmt.Errorf("faults: %s has negative MTBF or MTTR", cl.name)
		}
		if cl.spec.Enabled() && cl.needsRepair && cl.spec.MTTR == 0 {
			return fmt.Errorf("faults: %s enabled (MTBF %g) but MTTR is zero", cl.name, cl.spec.MTBF)
		}
	}
	if c.DegradeFactor < 0 || c.DegradeFactor >= 1 {
		return fmt.Errorf("faults: degrade_factor %g outside [0,1)", c.DegradeFactor)
	}
	if c.MaxRetries < -1 {
		return fmt.Errorf("faults: max_retries %d < -1", c.MaxRetries)
	}
	if c.RetryBackoff < 0 || c.RetryBackoffMax < 0 {
		return fmt.Errorf("faults: negative retry backoff")
	}
	return nil
}

// WithRepairDefaults returns a copy in which every repairable class
// whose MTBF is set and MTTR is not repairs in the default mean time:
// 600 s for site crashes and link degradations, 300 s for CE failures
// and link outages. Validate rejects such a class, so a caller gets
// these defaults only by asking for them.
func (c Config) WithRepairDefaults() Config {
	fill := func(sp *Spec, mttr float64) {
		if sp.MTBF > 0 && sp.MTTR == 0 {
			sp.MTTR = mttr
		}
	}
	fill(&c.SiteCrash, 600)
	fill(&c.CEFailure, 300)
	fill(&c.LinkDegrade, 600)
	fill(&c.LinkOutage, 300)
	return c
}

// Normalized returns a copy with defaults filled in for every knob left
// at its zero value.
func (c Config) Normalized() Config {
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 0.1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 30
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 600
	}
	return c
}

// Retry returns the retry policy the config implies (after defaults).
func (c Config) Retry() RetryPolicy {
	n := c.Normalized()
	return RetryPolicy{MaxRetries: n.MaxRetries, Backoff: n.RetryBackoff, BackoffMax: n.RetryBackoffMax}
}

// Stats counts what the injector actually did. All counts are faults
// successfully applied; a draw that landed on an already-down target is
// not counted (and not retried — the class just waits for its next tick).
type Stats struct {
	FaultsInjected   int `json:"faults_injected"`
	SiteCrashes      int `json:"site_crashes,omitempty"`
	CEFailures       int `json:"ce_failures,omitempty"`
	LinkDegradations int `json:"link_degradations,omitempty"`
	LinkOutages      int `json:"link_outages,omitempty"`
	TransfersAborted int `json:"transfers_aborted,omitempty"`
	ReplicasLost     int `json:"replicas_lost,omitempty"`
	Repairs          int `json:"repairs,omitempty"`
}

// Actions is the surface the simulation exposes to the injector. Sites
// and links are addressed by dense integer index. Implementations must
// be deterministic: any internal choice (which transfer to abort, which
// replica to lose) is drawn from the *rng.Source the injector passes in.
type Actions interface {
	NumSites() int
	NumLinks() int

	SiteUp(site int) bool
	CrashSite(site int)
	RecoverSite(site int)

	// FailCE takes one compute element at the site offline, reporting
	// false if the site is down or has no CE left to fail.
	FailCE(site int) bool
	RecoverCE(site int)

	// LinkNominal reports whether the link currently runs at its nominal
	// bandwidth (no degradation or outage in force).
	LinkNominal(link int) bool
	DegradeLink(link int, factor float64)
	RestoreLink(link int)

	// AbortTransfer kills one in-flight transfer chosen via pick,
	// reporting false if nothing is in flight.
	AbortTransfer(pick *rng.Source) bool
	// LoseReplica drops one cached (non-master, idle) replica chosen via
	// pick, reporting false if no candidate exists.
	LoseReplica(pick *rng.Source) bool
}

// Injector owns the fault processes. Create with Attach.
type Injector struct {
	eng    *desim.Engine
	cfg    Config
	acts   Actions
	active func() bool
	stats  Stats
}

// Attach starts one fault process per enabled class on eng. Each class
// derives its own named sub-stream from root, so enabling one class
// never perturbs another's schedule. active gates injection: once it
// reports false (workload finished), fault processes stop re-arming so
// the engine can drain. Repairs already scheduled still fire — no
// element stays broken across the end of a run.
func Attach(eng *desim.Engine, cfg Config, root *rng.Source, acts Actions, active func() bool) *Injector {
	cfg = cfg.Normalized()
	in := &Injector{eng: eng, cfg: cfg, acts: acts, active: active}
	in.process("site-crash", cfg.SiteCrash, root, in.siteCrash)
	in.process("ce-failure", cfg.CEFailure, root, in.ceFailure)
	in.process("link-degrade", cfg.LinkDegrade, root, in.linkDegrade)
	in.process("link-outage", cfg.LinkOutage, root, in.linkOutage)
	in.process("transfer-abort", cfg.TransferAbort, root, in.transferAbort)
	in.process("replica-loss", cfg.ReplicaLoss, root, in.replicaLoss)
	return in
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// process arms the recurring fault loop for one class: wait Exp(MTBF),
// fire, repeat. The loop stops re-arming once active() is false.
func (in *Injector) process(name string, spec Spec, root *rng.Source, fire func(src *rng.Source, spec Spec)) {
	if !spec.Enabled() {
		return
	}
	src := root.Derive(name)
	var arm func()
	arm = func() {
		in.eng.Schedule(src.Exp(spec.MTBF), func() {
			if in.active != nil && !in.active() {
				return
			}
			fire(src, spec)
			arm()
		})
	}
	arm()
}

func (in *Injector) siteCrash(src *rng.Source, spec Spec) {
	target := src.Intn(in.acts.NumSites())
	if !in.acts.SiteUp(target) {
		return
	}
	in.acts.CrashSite(target)
	in.stats.FaultsInjected++
	in.stats.SiteCrashes++
	in.eng.Schedule(src.Exp(spec.MTTR), func() {
		in.acts.RecoverSite(target)
		in.stats.Repairs++
	})
}

func (in *Injector) ceFailure(src *rng.Source, spec Spec) {
	target := src.Intn(in.acts.NumSites())
	if !in.acts.FailCE(target) {
		return
	}
	in.stats.FaultsInjected++
	in.stats.CEFailures++
	in.eng.Schedule(src.Exp(spec.MTTR), func() {
		in.acts.RecoverCE(target)
		in.stats.Repairs++
	})
}

func (in *Injector) linkDegrade(src *rng.Source, spec Spec) {
	in.linkFault(src, spec, in.cfg.DegradeFactor, &in.stats.LinkDegradations)
}

func (in *Injector) linkOutage(src *rng.Source, spec Spec) {
	in.linkFault(src, spec, 0, &in.stats.LinkOutages)
}

func (in *Injector) linkFault(src *rng.Source, spec Spec, factor float64, counter *int) {
	target := src.Intn(in.acts.NumLinks())
	if !in.acts.LinkNominal(target) {
		return
	}
	in.acts.DegradeLink(target, factor)
	in.stats.FaultsInjected++
	*counter++
	in.eng.Schedule(src.Exp(spec.MTTR), func() {
		in.acts.RestoreLink(target)
		in.stats.Repairs++
	})
}

func (in *Injector) transferAbort(src *rng.Source, _ Spec) {
	if !in.acts.AbortTransfer(src) {
		return
	}
	in.stats.FaultsInjected++
	in.stats.TransfersAborted++
}

func (in *Injector) replicaLoss(src *rng.Source, _ Spec) {
	if !in.acts.LoseReplica(src) {
		return
	}
	in.stats.FaultsInjected++
	in.stats.ReplicasLost++
}
