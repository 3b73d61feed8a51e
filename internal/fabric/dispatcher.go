package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"chicsim/internal/experiments"
	"chicsim/internal/obs"
	"chicsim/internal/obs/logging"
	"chicsim/internal/obs/registry"
)

// Options configures a Dispatcher. The zero value is usable: 60 s
// leases, 5 attempts per shard, no journal, no output files.
type Options struct {
	// LeaseSeconds is how long a booked/executing shard may go without a
	// heartbeat before it is requeued. Default 60.
	LeaseSeconds float64

	// MaxAttempts bounds how many times one shard may be booked before
	// the dispatcher gives up and marks it failed (with a synthesized
	// error record, so the campaign still completes). Default 5.
	MaxAttempts int

	// JournalPath, when non-empty, persists the campaign spec, every
	// terminal shard record, and the shard event timeline to an
	// append-only JSONL file; NewDispatcher resumes from it if it
	// already holds a campaign.
	JournalPath string

	// MergedPath, when non-empty, receives the merged canonical JSONL
	// stream the moment the last shard completes.
	MergedPath string

	// ManifestPath, when non-empty, receives a run manifest marked as
	// merged, with per-shard worker provenance.
	ManifestPath string

	// Logger, when non-nil, receives structured operational log lines
	// with campaign/shard/worker attributes.
	Logger *slog.Logger

	// Now is the clock (tests inject a fake one). Default time.Now.
	Now func() time.Time
}

type shardInfo struct {
	Shard
	State       ShardState
	Worker      string // current or last owner
	WorkerName  string
	Host        string
	Attempts    int
	LeaseExpiry time.Time
	Record      *experiments.CellRecord
	Events      []ShardEvent
}

type workerInfo struct {
	ID          string
	Name        string
	Host        string
	Capacity    int
	LastSeen    time.Time
	FirstBooked time.Time
	ShardsDone  int
}

// Dispatcher owns the shard queue for one campaign at a time. All methods
// are safe for concurrent use; every mutating entry point first expires
// stale leases, so liveness needs no background goroutine — any worker
// polling for work (or any client polling state) drives requeues.
type Dispatcher struct {
	opts Options
	log  *slog.Logger
	reg  *registry.Registry

	booked, requeued, dupes, stale registry.Counter
	completedC, failedC, regC      registry.Counter
	heartbeats, leaseExpiries      registry.Counter
	poisonedC, journalAppends      registry.Counter
	remainingG                     registry.Gauge
	stateG                         [5]registry.Gauge // indexed by ShardState
	liveG, deadG                   registry.Gauge
	fsyncH                         registry.Histogram

	mu         sync.Mutex
	campaignID string
	spec       *CampaignSpec
	manifest   *obs.Manifest
	shards     []*shardInfo
	queue      []int // queued shard indexes, kept sorted ascending
	workers    map[string]*workerInfo
	nextWorker int
	remaining  int // shards not yet terminal
	nRequeues  int
	nDupes     int
	merged     []byte // canonical JSONL, set when remaining hits 0
	publish    func(event string, data any)
}

// NewDispatcher creates a dispatcher and, when opts.JournalPath names an
// existing journal with a campaign in it, resumes that campaign:
// completed shards keep their records and event histories, everything
// else requeues (with a requeued timeline event marking the takeover).
func NewDispatcher(opts Options) (*Dispatcher, error) {
	if opts.LeaseSeconds <= 0 {
		opts.LeaseSeconds = 60
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = logging.Discard()
	}
	d := &Dispatcher{
		opts:    opts,
		log:     opts.Logger,
		reg:     registry.New(),
		workers: make(map[string]*workerInfo),
	}
	d.booked = d.reg.Counter("fabric_shards_booked_total", "Shards leased to workers (rebookings included).").With()
	d.requeued = d.reg.Counter("fabric_shards_requeued_total", "Shards whose lease expired and went back to the queue.").With()
	rt := d.reg.Counter("fabric_results_total", "Shard result uploads, by outcome.", "status")
	d.completedC, d.failedC = rt.With("ok"), rt.With("failed")
	d.dupes, d.stale = rt.With("duplicate"), rt.With("stale")
	d.regC = d.reg.Counter("fabric_workers_registered_total", "Worker registrations accepted.").With()
	d.heartbeats = d.reg.Counter("fabric_heartbeats_total", "Worker heartbeats received.").With()
	d.leaseExpiries = d.reg.Counter("fabric_lease_expiries_total", "Shard leases that lapsed without a heartbeat.").With()
	d.poisonedC = d.reg.Counter("fabric_shards_poisoned_total", "Shards abandoned after exhausting MaxAttempts bookings.").With()
	d.journalAppends = d.reg.Counter("fabric_journal_appends_total", "Entries fsynced to the queue journal.").With()
	d.remainingG = d.reg.Gauge("fabric_shards_remaining", "Shards not yet in a terminal state.").With()
	sg := d.reg.Gauge("fabric_shards", "Shards by lifecycle state.", "state")
	for st := Queued; st <= Failed; st++ {
		d.stateG[st] = sg.With(st.String())
	}
	wg := d.reg.Gauge("fabric_workers", "Registered workers by liveness (live = heartbeat within one lease).", "liveness")
	d.liveG, d.deadG = wg.With("live"), wg.With("dead")
	d.fsyncH = d.reg.Histogram("fabric_journal_fsync_seconds", "Latency of one journal append incl. fsync.",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}).With()

	if opts.JournalPath != "" {
		if err := d.loadJournal(opts.JournalPath); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Registry exposes the dispatcher's metrics for /metrics.
func (d *Dispatcher) Registry() *registry.Registry { return d.reg }

// SetPublish wires an event sink (the monitor's SSE Publish); may be nil.
func (d *Dispatcher) SetPublish(fn func(event string, data any)) {
	d.mu.Lock()
	d.publish = fn
	d.mu.Unlock()
}

func (d *Dispatcher) emit(event string, data any) {
	if d.publish != nil {
		d.publish(event, data)
	}
}

// eventLocked appends one timeline event to a shard's history and
// returns the journal entry that persists it.
func (d *Dispatcher) eventLocked(si *shardInfo, kind, worker string) journalEntry {
	ev := ShardEvent{T: d.opts.Now(), Kind: kind, Worker: worker, Attempt: si.Attempts}
	si.Events = append(si.Events, ev)
	return journalEntry{T: "event", Shard: si.Index, Event: &ev}
}

// journalAppend fsyncs entries to the queue journal (when configured),
// tracking append counts and fsync latency.
func (d *Dispatcher) journalAppend(entries ...journalEntry) {
	if d.opts.JournalPath == "" || len(entries) == 0 {
		return
	}
	j, err := openJournal(d.opts.JournalPath)
	if err != nil {
		d.log.Error("journal open failed", "campaign", d.campaignID, "err", err)
		return
	}
	defer j.Close()
	for _, e := range entries {
		t0 := time.Now()
		if err := j.append(e); err != nil {
			d.log.Error("journal append failed", "campaign", d.campaignID, "err", err)
			return
		}
		d.journalAppends.Inc()
		d.fsyncH.Observe(time.Since(t0).Seconds())
	}
}

// loadJournal replays a journal into dispatcher state (called before the
// dispatcher serves, so no locking needed).
func (d *Dispatcher) loadJournal(path string) error {
	entries, truncated, err := readJournal(path)
	if err != nil {
		return err
	}
	if truncated {
		d.log.Warn("journal has a truncated tail; dropping it", "path", path)
	}
	for _, e := range entries {
		switch e.T {
		case "spec":
			if e.Spec == nil {
				return fmt.Errorf("fabric: journal spec entry without a spec")
			}
			if err := e.Spec.Validate(); err != nil {
				return fmt.Errorf("%w (in the journal's spec entry)", err)
			}
			d.installCampaign(e.Spec, e.CampaignID)
		case "done":
			if d.spec == nil || e.Shard < 0 || e.Shard >= len(d.shards) || e.Record == nil {
				return fmt.Errorf("fabric: journal done entry out of order or out of range (shard %d)", e.Shard)
			}
			si := d.shards[e.Shard]
			if si.State == Completed || si.State == Failed {
				continue // duplicate journal line; first record wins
			}
			si.Record = e.Record
			si.Worker, si.WorkerName, si.Host, si.Attempts = e.Worker, e.Worker, e.Host, e.Attempts
			if e.Record.Err != "" {
				si.State = Failed
			} else {
				si.State = Completed
			}
			d.remaining--
			d.dequeue(e.Shard)
		case "event":
			if d.spec == nil || e.Shard < 0 || e.Shard >= len(d.shards) || e.Event == nil {
				continue // tolerate stray events; the timeline is advisory
			}
			si := d.shards[e.Shard]
			si.Events = append(si.Events, *e.Event)
			// Booked events restore attempt/owner provenance for shards
			// that were in flight at the crash.
			if e.Event.Kind == EventBooked && si.State == Queued {
				si.Attempts = e.Event.Attempt
				si.Worker = e.Event.Worker
			}
		case "merged":
			// Informational; the merge re-derives from the shard records.
		}
	}
	if d.spec != nil {
		// Shards that were mid-flight when the dispatcher died requeue;
		// stamp the takeover so the timeline records the lost attempt.
		var requeues []journalEntry
		for _, si := range d.shards {
			if si.State != Queued || len(si.Events) == 0 {
				continue
			}
			if last := si.Events[len(si.Events)-1].Kind; last == EventBooked || last == EventExecuting {
				requeues = append(requeues, d.eventLocked(si, EventRequeued, si.Worker))
			}
		}
		d.journalAppend(requeues...)
		d.syncGaugesLocked()
		d.log.Info("resumed campaign from journal",
			"campaign", d.campaignID, "path", path,
			"done", len(d.shards)-d.remaining, "shards", len(d.shards))
		if d.remaining == 0 {
			d.mergeLocked()
		}
	}
	return nil
}

// installCampaign resets shard state for a (validated) spec. Caller holds
// the lock (or is pre-serve).
func (d *Dispatcher) installCampaign(spec *CampaignSpec, id string) {
	if id == "" {
		id = spec.ID()
	}
	d.campaignID = id
	d.spec = spec
	d.shards = make([]*shardInfo, len(spec.Cells))
	d.queue = d.queue[:0]
	for i, cell := range spec.Cells {
		d.shards[i] = &shardInfo{Shard: Shard{Index: i, Cell: cell}}
		d.queue = append(d.queue, i)
	}
	d.remaining = len(d.shards)
	d.merged = nil
	d.nRequeues, d.nDupes = 0, 0
	d.syncGaugesLocked()
	if d.opts.ManifestPath != "" {
		m, err := obs.NewManifest("griddispatch", spec.Base, spec.Seeds)
		if err != nil {
			d.log.Error("manifest failed", "campaign", id, "err", err)
		} else {
			m.SetExtra("campaign_id", id)
			m.SetExtra("cells", len(spec.Cells))
			d.manifest = m
		}
	}
}

// syncGaugesLocked refreshes the shard-state and worker-liveness gauges
// from current state. Cheap enough to run on every API entry.
func (d *Dispatcher) syncGaugesLocked() {
	var counts [5]int
	for _, si := range d.shards {
		counts[si.State]++
	}
	for st := Queued; st <= Failed; st++ {
		d.stateG[st].Set(float64(counts[st]))
	}
	now := d.opts.Now()
	live, dead := 0, 0
	for _, w := range d.workers {
		if d.liveLocked(w, now) {
			live++
		} else {
			dead++
		}
	}
	d.liveG.Set(float64(live))
	d.deadG.Set(float64(dead))
	d.remainingG.Set(float64(d.remaining))
}

// dequeue removes one index from the queue if present.
func (d *Dispatcher) dequeue(idx int) {
	for i, q := range d.queue {
		if q == idx {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			return
		}
	}
}

// Submit installs a campaign. Identical respecs (same ID) attach to the
// existing campaign — the idempotent resume path. A different campaign is
// rejected while one is still running, and replaces it once merged.
func (d *Dispatcher) Submit(spec CampaignSpec) (SubmitResponse, error) {
	if err := spec.Validate(); err != nil {
		return SubmitResponse{}, err
	}
	id := spec.ID()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spec != nil {
		if id == d.campaignID {
			return SubmitResponse{CampaignID: id, Resumed: true}, nil
		}
		if d.remaining > 0 {
			return SubmitResponse{}, fmt.Errorf("fabric: campaign %s still running (%d shards open)", d.campaignID, d.remaining)
		}
	}
	if d.opts.JournalPath != "" {
		// One journal holds one campaign: truncate before installing.
		j, err := openJournal(d.opts.JournalPath)
		if err != nil {
			return SubmitResponse{}, err
		}
		if err := j.reset(); err != nil {
			j.Close()
			return SubmitResponse{}, err
		}
		if err := j.append(journalEntry{T: "spec", CampaignID: id, Spec: &spec}); err != nil {
			j.Close()
			return SubmitResponse{}, err
		}
		j.Close()
	}
	d.installCampaign(&spec, id)
	entries := make([]journalEntry, 0, len(d.shards))
	for _, si := range d.shards {
		entries = append(entries, d.eventLocked(si, EventQueued, ""))
	}
	d.journalAppend(entries...)
	d.log.Info("campaign submitted", "campaign", id, "cells", len(spec.Cells), "seeds", len(spec.Seeds))
	d.emit("campaign_submitted", map[string]any{"campaign_id": id, "cells": len(spec.Cells)})
	d.emit("fleet", d.fleetLocked())
	return SubmitResponse{CampaignID: id}, nil
}

// Campaign returns the active campaign spec.
func (d *Dispatcher) Campaign() (CampaignDoc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spec == nil {
		return CampaignDoc{}, fmt.Errorf("fabric: no campaign submitted")
	}
	return CampaignDoc{CampaignID: d.campaignID, Spec: *d.spec}, nil
}

// Register admits a worker and assigns its ID.
func (d *Dispatcher) Register(req RegisterRequest) RegisterResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextWorker++
	id := fmt.Sprintf("w%d-%s", d.nextWorker, req.Name)
	cap := req.Capacity
	if cap <= 0 {
		cap = 1
	}
	d.workers[id] = &workerInfo{ID: id, Name: req.Name, Host: req.Host, Capacity: cap, LastSeen: d.opts.Now()}
	d.regC.Inc()
	d.syncGaugesLocked()
	d.log.Info("worker registered", "campaign", d.campaignID, "worker", id, "host", req.Host, "capacity", cap)
	d.emit("worker_registered", map[string]any{"worker": id, "host": req.Host, "capacity": cap})
	d.emit("fleet", d.fleetLocked())
	return RegisterResponse{WorkerID: id, LeaseSeconds: d.opts.LeaseSeconds}
}

// Book leases up to req.Max queued shards to a worker.
func (d *Dispatcher) Book(req BookRequest) (BookResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLeasesLocked()
	w, ok := d.workers[req.WorkerID]
	if !ok {
		return BookResponse{}, fmt.Errorf("fabric: unknown worker %q (register first)", req.WorkerID)
	}
	w.LastSeen = d.opts.Now()
	resp := BookResponse{BackoffSeconds: 1}
	if d.spec == nil {
		d.syncGaugesLocked()
		return resp, nil
	}
	resp.CampaignID = d.campaignID
	resp.Done = d.remaining == 0
	n := req.Max
	if n <= 0 {
		n = 1
	}
	expiry := d.opts.Now().Add(time.Duration(d.opts.LeaseSeconds * float64(time.Second)))
	var entries []journalEntry
	for len(resp.Shards) < n && len(d.queue) > 0 {
		idx := d.queue[0]
		d.queue = d.queue[1:]
		si := d.shards[idx]
		si.State = Booked
		si.Worker, si.WorkerName, si.Host = w.ID, w.Name, w.Host
		si.Attempts++
		si.LeaseExpiry = expiry
		resp.Shards = append(resp.Shards, si.Shard)
		entries = append(entries, d.eventLocked(si, EventBooked, w.ID))
		d.booked.Inc()
	}
	if len(resp.Shards) > 0 {
		if w.FirstBooked.IsZero() {
			w.FirstBooked = d.opts.Now()
		}
		resp.LeaseSeconds = d.opts.LeaseSeconds
		resp.BackoffSeconds = 0
		d.journalAppend(entries...)
		d.emit("shards_booked", map[string]any{"worker": w.ID, "count": len(resp.Shards)})
	}
	d.syncGaugesLocked()
	return resp, nil
}

// Heartbeat extends leases on the listed shards and flags lost ones. A
// shard's first heartbeat moves it booked → executing on the timeline.
func (d *Dispatcher) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLeasesLocked()
	w, ok := d.workers[req.WorkerID]
	if !ok {
		return HeartbeatResponse{}, fmt.Errorf("fabric: unknown worker %q", req.WorkerID)
	}
	now := d.opts.Now()
	w.LastSeen = now
	d.heartbeats.Inc()
	expiry := now.Add(time.Duration(d.opts.LeaseSeconds * float64(time.Second)))
	var resp HeartbeatResponse
	var entries []journalEntry
	for _, idx := range req.Executing {
		if idx < 0 || idx >= len(d.shards) {
			continue
		}
		si := d.shards[idx]
		if si.Worker == w.ID && (si.State == Booked || si.State == Executing) {
			if si.State == Booked {
				entries = append(entries, d.eventLocked(si, EventExecuting, w.ID))
			}
			si.State = Executing
			si.LeaseExpiry = expiry
		} else {
			resp.Lost = append(resp.Lost, idx)
		}
	}
	d.journalAppend(entries...)
	d.syncGaugesLocked()
	return resp, nil
}

// Result ingests one shard's uploaded record. At-least-once delivery
// means duplicates (upload retries, or a lease-expired shard finishing on
// two workers) are expected: the first record for a cell wins — safe
// because determinism makes every copy byte-identical — and later copies
// are acked as duplicates so the worker stops retrying.
func (d *Dispatcher) Result(req ResultRequest) (ResultResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLeasesLocked()
	if w, ok := d.workers[req.WorkerID]; ok {
		w.LastSeen = d.opts.Now()
	}
	if d.spec == nil || req.CampaignID != d.campaignID {
		d.stale.Inc()
		return ResultResponse{Stale: true}, nil
	}
	if req.Shard < 0 || req.Shard >= len(d.shards) {
		return ResultResponse{}, fmt.Errorf("fabric: shard %d out of range", req.Shard)
	}
	si := d.shards[req.Shard]
	if si.Cell != req.Record.Cell {
		return ResultResponse{}, fmt.Errorf("fabric: shard %d record is for cell %v, want %v", req.Shard, req.Record.Cell, si.Cell)
	}
	if si.State == Completed || si.State == Failed {
		d.nDupes++
		d.dupes.Inc()
		return ResultResponse{Duplicate: true}, nil
	}
	rec := req.Record
	si.Worker = req.WorkerID
	if w, ok := d.workers[req.WorkerID]; ok {
		si.WorkerName, si.Host = w.Name, w.Host
		w.ShardsDone++
	}
	d.finishLocked(si, &rec, EventUploaded, req.WorkerID)
	d.syncGaugesLocked()
	return ResultResponse{}, nil
}

// finishLocked moves a shard to its terminal state with rec as its
// merged record, journals the record plus the closing timeline event,
// and merges the campaign when it was last.
func (d *Dispatcher) finishLocked(si *shardInfo, rec *experiments.CellRecord, evKind, worker string) {
	si.Record = rec
	if rec.Err != "" {
		si.State = Failed
		d.failedC.Inc()
	} else {
		si.State = Completed
		d.completedC.Inc()
	}
	d.dequeue(si.Index)
	d.remaining--
	d.journalAppend(
		d.eventLocked(si, evKind, worker),
		journalEntry{
			T: "done", Shard: si.Index, Worker: si.WorkerName,
			Host: si.Host, Attempts: si.Attempts, Record: rec,
		})
	d.log.Info("shard terminal",
		"campaign", d.campaignID, "shard", si.Index, "cell", si.Cell.String(),
		"state", si.State.String(), "worker", si.Worker,
		"done", len(d.shards)-d.remaining, "shards", len(d.shards))
	d.emit("shard_done", map[string]any{
		"shard": si.Index, "cell": si.Cell.String(), "state": si.State.String(), "worker": si.Worker,
	})
	d.emit("fleet", d.fleetLocked())
	if d.remaining == 0 {
		d.mergeLocked()
	}
}

// expireLeasesLocked requeues booked/executing shards whose lease lapsed
// (worker crash or kill); a shard that has burnt MaxAttempts bookings is
// failed with a synthesized error record instead, so the campaign always
// reaches a terminal state.
func (d *Dispatcher) expireLeasesLocked() {
	if d.spec == nil || d.remaining == 0 {
		return
	}
	now := d.opts.Now()
	requeued := false
	for _, si := range d.shards {
		if (si.State != Booked && si.State != Executing) || now.Before(si.LeaseExpiry) {
			continue
		}
		d.leaseExpiries.Inc()
		if si.Attempts >= d.opts.MaxAttempts {
			d.poisonedC.Inc()
			d.log.Warn("shard poisoned",
				"campaign", d.campaignID, "shard", si.Index, "cell", si.Cell.String(),
				"attempts", si.Attempts, "worker", si.Worker)
			rec := experiments.CellRecord{
				Cell: si.Cell,
				Err:  fmt.Sprintf("fabric: shard abandoned after %d lease expiries (last worker %s)", si.Attempts, si.Worker),
			}
			d.finishLocked(si, &rec, EventPoisoned, si.Worker)
			continue
		}
		si.State = Queued
		expired := d.eventLocked(si, EventLeaseExpired, si.Worker)
		requeuedEv := d.eventLocked(si, EventRequeued, si.Worker)
		si.LeaseExpiry = time.Time{}
		d.queue = append(d.queue, si.Index)
		d.nRequeues++
		d.requeued.Inc()
		requeued = true
		d.journalAppend(expired, requeuedEv)
		d.log.Warn("shard lease expired; requeued",
			"campaign", d.campaignID, "shard", si.Index, "cell", si.Cell.String(),
			"worker", si.Worker, "attempt", si.Attempts, "max_attempts", d.opts.MaxAttempts)
		d.emit("shard_requeued", map[string]any{"shard": si.Index, "worker": si.Worker})
		d.emit("fleet", d.fleetLocked())
	}
	if requeued {
		// Keep the queue in campaign order so work drains canonically.
		sort.Ints(d.queue)
	}
}

// mergeLocked reorders the terminal shard records into canonical campaign
// order and encodes them exactly as a single-process StreamWriter would,
// so the merged stream is byte-identical to `gridsweep -jsonl` output.
func (d *Dispatcher) mergeLocked() {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, si := range d.shards {
		if si.Record == nil {
			d.log.Error("shard terminal without a record; merge aborted", "campaign", d.campaignID, "shard", si.Index)
			return
		}
		if err := enc.Encode(*si.Record); err != nil {
			d.log.Error("merge encode failed", "campaign", d.campaignID, "err", err)
			return
		}
	}
	d.merged = buf.Bytes()
	d.log.Info("campaign merged", "campaign", d.campaignID, "cells", len(d.shards), "bytes", len(d.merged))
	if d.opts.MergedPath != "" {
		if err := os.WriteFile(d.opts.MergedPath, d.merged, 0o644); err != nil {
			d.log.Error("writing merged stream failed", "campaign", d.campaignID, "err", err)
		}
	}
	d.journalAppend(journalEntry{T: "merged", CampaignID: d.campaignID})
	if d.manifest != nil {
		d.manifest.MarkMerged(d.provenanceLocked())
		d.manifest.Finish()
		if err := d.manifest.WriteFile(d.opts.ManifestPath); err != nil {
			d.log.Error("writing manifest failed", "campaign", d.campaignID, "err", err)
		}
	}
	d.emit("campaign_merged", map[string]any{"campaign_id": d.campaignID, "cells": len(d.shards)})
}

// provenanceLocked snapshots per-shard worker attribution for manifests.
func (d *Dispatcher) provenanceLocked() []obs.ShardProvenance {
	out := make([]obs.ShardProvenance, 0, len(d.shards))
	for _, si := range d.shards {
		out = append(out, obs.ShardProvenance{
			Index:    si.Index,
			Cell:     si.Cell.String(),
			Worker:   si.WorkerName,
			Host:     si.Host,
			Attempts: si.Attempts,
		})
	}
	return out
}

// Merged returns the canonical merged JSONL stream, or an error while
// shards are still open.
func (d *Dispatcher) Merged() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.merged == nil {
		return nil, fmt.Errorf("fabric: campaign not merged yet (%d shards open)", d.remaining)
	}
	return d.merged, nil
}

// State snapshots the fabric for /api/state and the monitor's /status.
func (d *Dispatcher) State() StateDoc {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLeasesLocked()
	d.syncGaugesLocked()
	doc := StateDoc{Phase: "idle", Duplicates: d.nDupes, Requeues: d.nRequeues}
	if d.spec != nil {
		doc.CampaignID = d.campaignID
		doc.Phase = "running"
		if d.merged != nil {
			doc.Phase = "merged"
		}
		doc.Counts = make(map[string]int)
		for _, si := range d.shards {
			doc.Counts[si.State.String()]++
			doc.Shards = append(doc.Shards, ShardStatus{
				Index: si.Index, Cell: si.Cell.String(), State: si.State.String(),
				Worker: si.Worker, Host: si.Host, Attempts: si.Attempts,
			})
		}
	}
	ids := make([]string, 0, len(d.workers))
	for id := range d.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := d.workers[id]
		doc.Workers = append(doc.Workers, WorkerStatus{
			ID: w.ID, Name: w.Name, Host: w.Host, Capacity: w.Capacity,
			LastSeen: w.LastSeen, ShardsDone: w.ShardsDone,
		})
	}
	return doc
}
