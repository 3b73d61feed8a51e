package fabric

import (
	"context"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"chicsim/internal/experiments"
	"chicsim/internal/obs/logging"
	"chicsim/internal/obs/registry"
)

// Worker is a pull-based execution daemon: it registers with a
// dispatcher, books shards whenever it has free capacity, executes each
// shard through the ordinary experiments.Run path, heartbeats while
// executing, and uploads CellRecords with retry (the dispatcher dedupes).
type Worker struct {
	// Dispatcher is the dispatcher base URL, e.g. "http://127.0.0.1:7171".
	Dispatcher string

	// Name identifies the worker in logs and provenance. Default: host:pid.
	Name string

	// Host is the capacity attribute reported at registration. Default:
	// os.Hostname.
	Host string

	// Capacity is how many shards run concurrently (each shard's seeds
	// run sequentially, keeping per-shard determinism trivially intact).
	// Default: GOMAXPROCS.
	Capacity int

	// Poll is the idle re-book interval. Default 500 ms.
	Poll time.Duration

	// KeepAlive keeps the daemon polling for future campaigns after the
	// current one merges; false exits Run once the campaign is done.
	KeepAlive bool

	// Logger, when non-nil, receives structured operational log lines.
	Logger *slog.Logger

	// RunShard executes one shard (test hook). Default ExecuteShard.
	RunShard func(spec CampaignSpec, shard Shard) experiments.CellRecord

	// OnShardDone, when non-nil, observes every shard this worker
	// uploaded (provenance for worker-side manifests). Called from shard
	// goroutines.
	OnShardDone func(shard Shard, rec experiments.CellRecord)

	// Client overrides the HTTP client (tests). Default: derived from
	// Dispatcher.
	Client *Client

	log *slog.Logger

	obsOnce sync.Once
	reg     *registry.Registry
	m       workerMetrics

	stMu sync.Mutex
	st   *workerState
}

// workerMetrics are the worker-side fabric metrics, served on the
// daemon's /metrics endpoint when -listen is set.
type workerMetrics struct {
	executedOK, executedFailed registry.Counter
	uploadOK, uploadDup        registry.Counter
	uploadStale, uploadRetry   registry.Counter
	heartbeats                 registry.Counter
	busyG, capG                registry.Gauge
	uploadH                    registry.Histogram
}

// Metrics returns the worker's metrics registry, creating it on first
// use, so a daemon can mount it on /metrics before calling Run.
func (w *Worker) Metrics() *registry.Registry {
	w.obsOnce.Do(func() {
		w.reg = registry.New()
		ex := w.reg.Counter("worker_shards_executed_total", "Shards this worker finished computing, by record outcome.", "status")
		w.m.executedOK, w.m.executedFailed = ex.With("ok"), ex.With("failed")
		up := w.reg.Counter("worker_uploads_total", "Result upload attempts, by outcome (retry = attempt that errored).", "status")
		w.m.uploadOK, w.m.uploadDup = up.With("ok"), up.With("duplicate")
		w.m.uploadStale, w.m.uploadRetry = up.With("stale"), up.With("retry")
		w.m.heartbeats = w.reg.Counter("worker_heartbeats_total", "Heartbeats sent while shards were in flight.").With()
		w.m.busyG = w.reg.Gauge("worker_busy_slots", "Shards currently executing on this worker.").With()
		w.m.capG = w.reg.Gauge("worker_capacity", "Concurrent shard capacity.").With()
		w.m.uploadH = w.reg.Histogram("worker_upload_seconds", "Latency of one result upload attempt.",
			[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}).With()
	})
	return w.reg
}

// WorkerSnapshot is the worker daemon's /status document.
type WorkerSnapshot struct {
	ID         string `json:"id,omitempty"` // dispatcher-assigned, empty before registration
	Name       string `json:"name"`
	Host       string `json:"host,omitempty"`
	Capacity   int    `json:"capacity"`
	Busy       int    `json:"busy"`
	Executing  []int  `json:"executing,omitempty"`
	ShardsDone int    `json:"shards_done"`
}

// Status snapshots the worker for /status; safe to call at any time,
// including before Run.
func (w *Worker) Status() WorkerSnapshot {
	snap := WorkerSnapshot{Name: w.Name, Host: w.Host, Capacity: w.Capacity}
	w.stMu.Lock()
	st := w.st
	w.stMu.Unlock()
	if st == nil {
		return snap
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap.ID = st.id
	snap.Busy = len(st.executing)
	for idx := range st.executing {
		snap.Executing = append(snap.Executing, idx)
	}
	snap.ShardsDone = st.done
	return snap
}

// ExecuteShard runs one shard exactly as a single-process campaign would
// run that cell: same Base, same seeds, aggregates sorted by seed — so
// the resulting CellRecord is byte-identical to the record a
// single-process `gridsweep -jsonl` run streams for the cell.
func ExecuteShard(spec CampaignSpec, shard Shard) experiments.CellRecord {
	results := experiments.Run(experiments.Campaign{
		Base:    spec.Base,
		Cells:   []experiments.Cell{shard.Cell},
		Seeds:   spec.Seeds,
		Workers: 1,
	})
	return experiments.RecordOf(&results[0])
}

// Run drives the worker until ctx is canceled or — when KeepAlive is
// false — the campaign merges and no shards are in flight. Returns nil
// on a clean campaign-done exit.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" {
		host, _ := os.Hostname()
		w.Name = host
	}
	if w.Host == "" {
		w.Host, _ = os.Hostname()
	}
	if w.Capacity <= 0 {
		w.Capacity = runtime.GOMAXPROCS(0)
	}
	if w.Poll <= 0 {
		w.Poll = 500 * time.Millisecond
	}
	if w.RunShard == nil {
		w.RunShard = ExecuteShard
	}
	w.log = w.Logger
	if w.log == nil {
		w.log = logging.Discard()
	}
	w.Metrics()
	w.m.capG.Set(float64(w.Capacity))
	c := w.Client
	if c == nil {
		c = &Client{BaseURL: w.Dispatcher}
	}

	st := &workerState{
		worker:    w,
		client:    c,
		executing: make(map[int]Shard),
		specs:     make(map[string]*CampaignSpec),
		wake:      make(chan struct{}, 1),
	}
	w.stMu.Lock()
	w.st = st
	w.stMu.Unlock()
	lease, err := st.register(ctx)
	if err != nil {
		return err
	}
	hbEvery := time.Duration(lease / 3 * float64(time.Second))
	if hbEvery < 100*time.Millisecond {
		hbEvery = 100 * time.Millisecond
	}
	hb := time.NewTicker(hbEvery)
	defer hb.Stop()
	poll := time.NewTimer(0)
	defer poll.Stop()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hb.C:
			st.heartbeat()
		case <-st.wake:
			if st.tryBook(ctx) {
				return nil
			}
		case <-poll.C:
			if st.tryBook(ctx) {
				return nil
			}
			poll.Reset(w.Poll)
		}
	}
}

// workerState is the mutable half of a running worker.
type workerState struct {
	worker *Worker
	client *Client

	mu        sync.Mutex
	id        string
	executing map[int]Shard
	specs     map[string]*CampaignSpec
	done      int
	wake      chan struct{}
}

// register retries until the dispatcher admits the worker or ctx ends.
func (st *workerState) register(ctx context.Context) (lease float64, err error) {
	w := st.worker
	for {
		resp, rerr := st.client.Register(RegisterRequest{
			Name: w.Name, Host: w.Host, PID: os.Getpid(), Capacity: w.Capacity,
		})
		if rerr == nil {
			st.mu.Lock()
			st.id = resp.WorkerID
			st.mu.Unlock()
			w.log.Info("registered", "worker", resp.WorkerID, "lease_s", resp.LeaseSeconds)
			return resp.LeaseSeconds, nil
		}
		w.log.Warn("register failed; retrying", "err", rerr)
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(w.Poll):
		}
	}
}

func (st *workerState) workerID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.id
}

func (st *workerState) inflight() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	idxs := make([]int, 0, len(st.executing))
	for idx := range st.executing {
		idxs = append(idxs, idx)
	}
	return idxs
}

func (st *workerState) heartbeat() {
	idxs := st.inflight()
	if len(idxs) == 0 {
		return
	}
	w := st.worker
	resp, err := st.client.Heartbeat(HeartbeatRequest{WorkerID: st.workerID(), Executing: idxs})
	if err != nil {
		w.log.Warn("heartbeat failed", "err", err)
		return
	}
	w.m.heartbeats.Inc()
	for _, lost := range resp.Lost {
		// The lease expired (e.g. a long GC pause or dispatcher restart);
		// the shard is someone else's now. Keep computing — the upload
		// will be deduped or stale-acked — but say so.
		w.log.Warn("lost lease on shard", "shard", lost)
	}
}

// tryBook books up to the free capacity and launches shard executions.
// Returns true when the worker should exit (campaign done, KeepAlive
// off, nothing in flight).
func (st *workerState) tryBook(ctx context.Context) (exit bool) {
	w := st.worker
	st.mu.Lock()
	free := w.Capacity - len(st.executing)
	idle := len(st.executing) == 0
	st.mu.Unlock()
	if free <= 0 {
		return false
	}
	resp, err := st.client.Book(BookRequest{WorkerID: st.workerID(), Max: free})
	if err != nil {
		// Dispatcher restarted and forgot us: re-register and retry on
		// the next tick.
		w.log.Warn("book failed; re-registering", "err", err)
		if _, rerr := st.register(ctx); rerr != nil {
			return false
		}
		return false
	}
	if len(resp.Shards) == 0 {
		return resp.Done && idle && !w.KeepAlive
	}
	spec := st.specFor(resp.CampaignID)
	if spec == nil {
		return false
	}
	for _, shard := range resp.Shards {
		st.mu.Lock()
		st.executing[shard.Index] = shard
		w.m.busyG.Set(float64(len(st.executing)))
		st.mu.Unlock()
		go st.execute(ctx, resp.CampaignID, *spec, shard)
	}
	return false
}

// specFor returns (fetching and caching if needed) the spec for a
// campaign ID, or nil when the dispatcher has moved on.
func (st *workerState) specFor(id string) *CampaignSpec {
	st.mu.Lock()
	spec := st.specs[id]
	st.mu.Unlock()
	if spec != nil {
		return spec
	}
	doc, err := st.client.Campaign()
	if err != nil || doc.CampaignID != id {
		st.worker.log.Warn("campaign spec unavailable", "campaign", id, "err", err)
		return nil
	}
	st.mu.Lock()
	st.specs[id] = &doc.Spec
	st.mu.Unlock()
	return &doc.Spec
}

// execute runs one shard and uploads its record with retry.
func (st *workerState) execute(ctx context.Context, campaignID string, spec CampaignSpec, shard Shard) {
	w := st.worker
	w.log.Info("executing shard", "campaign", campaignID, "shard", shard.Index, "cell", shard.Cell.String())
	rec := w.RunShard(spec, shard)
	if rec.Err != "" {
		w.m.executedFailed.Inc()
	} else {
		w.m.executedOK.Inc()
	}
	defer func() {
		st.mu.Lock()
		delete(st.executing, shard.Index)
		w.m.busyG.Set(float64(len(st.executing)))
		st.mu.Unlock()
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}()
	for {
		t0 := time.Now()
		resp, err := st.client.Result(ResultRequest{
			WorkerID: st.workerID(), CampaignID: campaignID, Shard: shard.Index, Record: rec,
		})
		w.m.uploadH.Observe(time.Since(t0).Seconds())
		if err == nil {
			switch {
			case resp.Stale:
				w.m.uploadStale.Inc()
				w.log.Warn("shard result stale (campaign moved on)", "shard", shard.Index)
			case resp.Duplicate:
				w.m.uploadDup.Inc()
				w.log.Info("shard result was a duplicate", "shard", shard.Index)
			default:
				w.m.uploadOK.Inc()
				w.log.Info("shard uploaded", "campaign", campaignID, "shard", shard.Index, "cell", shard.Cell.String())
			}
			if !resp.Stale {
				st.mu.Lock()
				st.done++
				st.mu.Unlock()
				if w.OnShardDone != nil {
					w.OnShardDone(shard, rec)
				}
			}
			return
		}
		w.m.uploadRetry.Inc()
		w.log.Warn("shard upload failed; retrying", "shard", shard.Index, "err", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(w.Poll):
		}
	}
}
