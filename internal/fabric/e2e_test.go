package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chicsim/internal/experiments"
	"chicsim/internal/obs"
)

// TestFabricGoldenByteIdentical is the fabric's determinism contract: a
// campaign sharded across a dispatcher and two workers — with one worker
// killed mid-campaign so its booked shard requeues onto the survivor —
// must produce a merged JSONL stream byte-identical to the stream a
// single-process campaign writes in canonical cell order.
func TestFabricGoldenByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := testSpec(1) // base config only; cells replaced below
	spec.Cells = experiments.PaperCells(10)[:4]
	spec.Seeds = []uint64{1, 2}

	// Single-process reference: the campaign run in one process, records
	// encoded in campaign cell order — exactly what `gridsweep -jsonl`
	// writes with one worker.
	ref := experiments.Run(experiments.Campaign{
		Base: spec.Base, Cells: spec.Cells, Seeds: spec.Seeds, Workers: 2,
	})
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range ref {
		if ref[i].Err != nil {
			t.Fatalf("reference cell %v: %v", ref[i].Cell, ref[i].Err)
		}
		if err := enc.Encode(experiments.RecordOf(&ref[i])); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	mergedPath := filepath.Join(dir, "merged.jsonl")
	d, err := NewDispatcher(Options{
		LeaseSeconds: 1,
		MaxAttempts:  10,
		JournalPath:  filepath.Join(dir, "queue.journal"),
		MergedPath:   mergedPath,
		ManifestPath: manifestPath,
		Logger:       testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &Client{BaseURL: srv.Addr()}

	sub, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Worker A books one shard and hangs in it (a stuck or crashed
	// process); we then cancel it, so its heartbeats stop and the lease
	// expires.
	aStarted := make(chan struct{})
	blocked := make(chan struct{})
	defer close(blocked)
	var once sync.Once
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	workerA := &Worker{
		Dispatcher: srv.Addr(),
		Name:       "doomed",
		Capacity:   1,
		Poll:       20 * time.Millisecond,
		Logger:     testLogger(t),
		RunShard: func(_ CampaignSpec, _ Shard) experiments.CellRecord {
			once.Do(func() { close(aStarted) })
			<-blocked
			return experiments.CellRecord{}
		},
	}
	errA := make(chan error, 1)
	go func() { errA <- workerA.Run(ctxA) }()

	select {
	case <-aStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("worker A never booked a shard")
	}

	// Worker B does the real work, including the shard A forfeits.
	var bMu sync.Mutex
	var bShards []int
	workerB := &Worker{
		Dispatcher: srv.Addr(),
		Name:       "survivor",
		Capacity:   2,
		Poll:       20 * time.Millisecond,
		Logger:     testLogger(t),
		OnShardDone: func(shard Shard, _ experiments.CellRecord) {
			bMu.Lock()
			bShards = append(bShards, shard.Index)
			bMu.Unlock()
		},
	}
	errB := make(chan error, 1)
	go func() { errB <- workerB.Run(context.Background()) }()

	// Kill A mid-campaign: lease on its shard lapses 1 s later and the
	// shard requeues onto B.
	cancelA()
	if err := <-errA; err != context.Canceled {
		t.Fatalf("worker A exit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	merged, err := client.WaitMerged(ctx, sub.CampaignID, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("worker B exit: %v", err)
	}

	if !bytes.Equal(merged, want.Bytes()) {
		t.Fatalf("merged stream differs from single-process reference:\nmerged  %d bytes\nwant    %d bytes", len(merged), want.Len())
	}
	// The -out file carries the same bytes.
	onDisk, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, merged) {
		t.Fatal("merged file on disk differs from served stream")
	}

	// The kill actually exercised the requeue path, and B produced every
	// surviving record.
	st := d.State()
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1 (worker A's shard)", st.Requeues)
	}
	bMu.Lock()
	nB := len(bShards)
	bMu.Unlock()
	if nB != len(spec.Cells) {
		t.Fatalf("worker B uploaded %d shards, want %d", nB, len(spec.Cells))
	}

	// The merged manifest records shard/worker provenance.
	js, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var manifest obs.Manifest
	if err := json.Unmarshal(js, &manifest); err != nil {
		t.Fatal(err)
	}
	if !manifest.Merged {
		t.Fatal("merged manifest not marked merged")
	}
	if len(manifest.Shards) != len(spec.Cells) {
		t.Fatalf("manifest has %d shards, want %d", len(manifest.Shards), len(spec.Cells))
	}
	requeuedSeen := false
	for _, sp := range manifest.Shards {
		if sp.Worker != "survivor" {
			t.Fatalf("shard %d attributed to %q, want survivor", sp.Index, sp.Worker)
		}
		if sp.Attempts > 1 {
			requeuedSeen = true
		}
	}
	if !requeuedSeen {
		t.Fatal("no shard records more than one attempt despite the kill")
	}

	// The timeline recorded the kill cross-process: some shard carries a
	// booked attempt by the doomed worker, a lease expiry, a requeue, and
	// a final upload by the survivor.
	tl := d.Timeline()
	if tl.Phase != "merged" || len(tl.Shards) != len(spec.Cells) {
		t.Fatalf("timeline after merge: phase %s, %d shards", tl.Phase, len(tl.Shards))
	}
	killedShard := -1
	for _, sh := range tl.Shards {
		var sawDoomed, sawExpiry, sawRequeue bool
		lastWorker := ""
		for _, ev := range sh.Events {
			switch ev.Kind {
			case EventBooked:
				if strings.HasSuffix(ev.Worker, "-doomed") {
					sawDoomed = true
				}
			case EventLeaseExpired:
				sawExpiry = true
			case EventRequeued:
				sawRequeue = true
			case EventUploaded:
				lastWorker = ev.Worker
			}
		}
		if sawDoomed && sawExpiry && sawRequeue {
			killedShard = sh.Index
			if !strings.HasSuffix(lastWorker, "-survivor") {
				t.Fatalf("killed shard %d finally uploaded by %q, want the survivor", sh.Index, lastWorker)
			}
		}
	}
	if killedShard < 0 {
		t.Fatalf("no shard's timeline shows the doomed booking + expiry + requeue arc: %+v", tl.Shards)
	}

	// The Chrome export puts the killed attempt (aborted) on the doomed
	// worker's lane, the retry on the survivor's, and a lease-expiry
	// marker in between.
	spans, markers := FleetTraceData(tl)
	var doomedAborted, survivorRun, expiryMarker bool
	for _, sp := range spans {
		ab, _ := sp.Args["aborted"].(bool)
		if strings.HasSuffix(sp.Worker, "-doomed") && ab {
			doomedAborted = true
		}
		if strings.HasSuffix(sp.Worker, "-survivor") {
			survivorRun = true
		}
	}
	for _, m := range markers {
		if m.Name == EventLeaseExpired {
			expiryMarker = true
		}
	}
	if !doomedAborted || !survivorRun || !expiryMarker {
		t.Fatalf("fleet trace incomplete: doomedAborted=%v survivorRun=%v expiryMarker=%v",
			doomedAborted, survivorRun, expiryMarker)
	}

	// The fabric metrics agree with the story the timeline tells.
	mustMetric := func(name string, min float64, labels ...string) {
		t.Helper()
		v, ok := d.Registry().Value(name, labels...)
		if !ok || v < min {
			t.Fatalf("%s%v = %v (ok=%v), want >= %v", name, labels, v, ok, min)
		}
	}
	mustMetric("fabric_lease_expiries_total", 1)
	mustMetric("fabric_shards", float64(len(spec.Cells)), "completed")
	mustMetric("fabric_journal_appends_total", float64(len(spec.Cells)))

	// The streamed bytes parse back into the reference aggregates.
	results, err := experiments.ReadStream(bytes.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ref) {
		t.Fatalf("merged stream has %d cells, want %d", len(results), len(ref))
	}
	for i := range results {
		if results[i].Cell != ref[i].Cell {
			t.Fatalf("cell %d out of canonical order: %v, want %v", i, results[i].Cell, ref[i].Cell)
		}
	}
}

// TestExecuteShardMatchesSingleProcess pins the worker-side determinism
// half of the golden contract at the unit level: ExecuteShard's record
// for one cell is byte-identical to the record a whole-campaign run
// produces for that cell.
func TestExecuteShardMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := testSpec(1)
	spec.Cells = []experiments.Cell{
		{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10},
		{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10},
	}
	spec.Seeds = []uint64{1, 2}

	ref := experiments.Run(experiments.Campaign{
		Base: spec.Base, Cells: spec.Cells, Seeds: spec.Seeds, Workers: 4,
	})
	for i, cell := range spec.Cells {
		got := ExecuteShard(spec, Shard{Index: i, Cell: cell})
		wantJS, err := json.Marshal(experiments.RecordOf(&ref[i]))
		if err != nil {
			t.Fatal(err)
		}
		gotJS, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJS, wantJS) {
			t.Fatalf("cell %v: shard record differs from single-process record", cell)
		}
	}
}
