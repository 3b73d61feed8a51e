package site

import (
	"slices"
	"testing"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ls"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// fakeMover delivers files after a fixed virtual delay.
type fakeMover struct {
	eng   *desim.Engine
	delay desim.Time
	calls int
}

func (m *fakeMover) Fetch(f storage.FileID, from, to topology.SiteID, requester job.ID, done func()) {
	m.calls++
	m.eng.Schedule(m.delay, done)
}

type fixture struct {
	eng   *desim.Engine
	topo  *topology.Topology
	cat   *catalog.Catalog
	mover *fakeMover
	site  *Site
	done  []*job.Job
}

func newFixture(t *testing.T, ces int, capacity float64, delay desim.Time) *fixture {
	t.Helper()
	fx := &fixture{eng: desim.New(), cat: catalog.New()}
	topo, err := topology.NewHierarchical(topology.Config{Sites: 4, RegionFanout: 2, Bandwidth: 10e6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	fx.topo = topo
	fx.mover = &fakeMover{eng: fx.eng, delay: delay}
	fx.site, err = New(fx.eng, topo, fx.cat, fx.mover, ls.FIFO{}, Config{ID: 0, CEs: ces, Capacity: capacity},
		func(j *job.Job) { fx.done = append(fx.done, j) })
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *fixture) defineFile(t *testing.T, f storage.FileID, size float64, master topology.SiteID) {
	t.Helper()
	if err := fx.cat.DefineFile(f, size); err != nil {
		t.Fatal(err)
	}
	if master == 0 {
		if err := fx.site.InstallMaster(f, size); err != nil {
			t.Fatal(err)
		}
	} else {
		fx.cat.Register(f, master)
	}
}

func (fx *fixture) submit(f []storage.FileID, compute float64) *job.Job {
	j := job.New(job.ID(len(fx.done)+fx.site.QueueLen()+fx.site.Busy()+100), 0, 0, f, compute)
	j.Advance(job.Submitted, fx.eng.Now())
	fx.site.Enqueue(j)
	return j
}

func TestLocalDataRunsImmediately(t *testing.T) {
	fx := newFixture(t, 2, 0, 10)
	fx.defineFile(t, 1, 1e9, 0)
	j := fx.submit([]storage.FileID{1}, 300)
	fx.eng.Run()
	if j.State != job.Done {
		t.Fatalf("job state = %v", j.State)
	}
	if j.StartTime != 0 || j.EndTime != 300 {
		t.Fatalf("start=%v end=%v, want 0/300", j.StartTime, j.EndTime)
	}
	if fx.mover.calls != 0 {
		t.Fatalf("fetched %d times for local data", fx.mover.calls)
	}
	if len(fx.done) != 1 {
		t.Fatalf("done callbacks = %d", len(fx.done))
	}
}

func TestRemoteDataWaitsForTransfer(t *testing.T) {
	fx := newFixture(t, 2, 0, 50)
	fx.defineFile(t, 1, 1e9, 2) // master elsewhere
	j := fx.submit([]storage.FileID{1}, 300)
	fx.eng.Run()
	if j.StartTime != 50 {
		t.Fatalf("start = %v, want 50 (transfer delay)", j.StartTime)
	}
	if j.DataReady != 50 {
		t.Fatalf("DataReady = %v, want 50", j.DataReady)
	}
	if fx.mover.calls != 1 {
		t.Fatalf("fetch calls = %d", fx.mover.calls)
	}
	// The fetched file is now cached and registered as a replica.
	if !fx.cat.HasReplica(1, 0) {
		t.Fatal("fetched file not registered as replica")
	}
}

func TestFetchDeduplication(t *testing.T) {
	fx := newFixture(t, 4, 0, 50)
	fx.defineFile(t, 1, 1e9, 2)
	fx.submit([]storage.FileID{1}, 300)
	fx.submit([]storage.FileID{1}, 300)
	fx.submit([]storage.FileID{1}, 300)
	fx.eng.Run()
	if fx.mover.calls != 1 {
		t.Fatalf("fetch calls = %d, want 1 (deduplicated)", fx.mover.calls)
	}
	if len(fx.done) != 3 {
		t.Fatalf("done = %d", len(fx.done))
	}
}

func TestQueueWaitsForFreeCE(t *testing.T) {
	fx := newFixture(t, 1, 0, 0)
	fx.defineFile(t, 1, 1e9, 0)
	a := fx.submit([]storage.FileID{1}, 100)
	b := fx.submit([]storage.FileID{1}, 100)
	fx.eng.Run()
	if a.StartTime != 0 || b.StartTime != 100 {
		t.Fatalf("starts = %v/%v, want 0/100", a.StartTime, b.StartTime)
	}
	if b.QueueWait() != 100 {
		t.Fatalf("QueueWait = %v", b.QueueWait())
	}
}

func TestMaxQueueTransferOverlap(t *testing.T) {
	// One CE busy for 200 s; remote fetch takes 150 s. The second job's
	// wait is max(queue, transfer) = 200, not 350.
	fx := newFixture(t, 1, 0, 150)
	fx.defineFile(t, 1, 1e9, 0)
	fx.defineFile(t, 2, 1e9, 2)
	a := fx.submit([]storage.FileID{1}, 200)
	b := fx.submit([]storage.FileID{2}, 100)
	fx.eng.Run()
	if a.EndTime != 200 {
		t.Fatalf("a end = %v", a.EndTime)
	}
	if b.StartTime != 200 {
		t.Fatalf("b start = %v, want 200 (transfer overlapped queue wait)", b.StartTime)
	}
	if b.DataReady != 150 {
		t.Fatalf("b DataReady = %v, want 150", b.DataReady)
	}
}

func TestReadyJobOvertakesBlockedHead(t *testing.T) {
	// FIFO over *ready* jobs: a job whose data is present runs while the
	// queue head is still waiting on its transfer.
	fx := newFixture(t, 1, 0, 500)
	fx.defineFile(t, 1, 1e9, 2) // remote, slow
	fx.defineFile(t, 2, 1e9, 0) // local
	blocked := fx.submit([]storage.FileID{1}, 100)
	ready := fx.submit([]storage.FileID{2}, 100)
	fx.eng.Run()
	if ready.StartTime != 0 {
		t.Fatalf("ready job started at %v, want 0", ready.StartTime)
	}
	if blocked.StartTime != 500 {
		t.Fatalf("blocked job started at %v, want 500", blocked.StartTime)
	}
}

func TestProcessorIdleWhileDataMissing(t *testing.T) {
	fx := newFixture(t, 2, 0, 100)
	fx.defineFile(t, 1, 1e9, 2)
	fx.submit([]storage.FileID{1}, 50)
	fx.eng.Run()
	// Busy only during [100, 150] on one CE.
	if got := fx.site.BusyIntegral(fx.eng.Now()); got != 50 {
		t.Fatalf("busy integral = %v, want 50", got)
	}
}

func TestMultiInputJob(t *testing.T) {
	fx := newFixture(t, 1, 0, 100)
	fx.defineFile(t, 1, 1e9, 0)
	fx.defineFile(t, 2, 1e9, 2)
	fx.defineFile(t, 3, 1e9, 3)
	j := fx.submit([]storage.FileID{1, 2, 3}, 60)
	fx.eng.Run()
	if j.State != job.Done {
		t.Fatalf("state = %v", j.State)
	}
	if j.StartTime != 100 {
		t.Fatalf("start = %v, want 100 (both fetches in parallel)", j.StartTime)
	}
	if fx.mover.calls != 2 {
		t.Fatalf("fetch calls = %d, want 2", fx.mover.calls)
	}
}

func TestPinPreventsEvictionWhileQueued(t *testing.T) {
	// Capacity for 1 file beyond the master. Two jobs with different
	// remote inputs: the first's file must not be evicted by the
	// second's arrival before the first job runs.
	fx := newFixture(t, 1, 2.5e9, 0)
	fx.defineFile(t, 1, 1e9, 0) // master: 1 GB of 2.5
	fx.defineFile(t, 2, 1e9, 2)
	fx.defineFile(t, 3, 1e9, 3)
	a := fx.submit([]storage.FileID{2}, 100)
	b := fx.submit([]storage.FileID{3}, 100)
	fx.eng.Run()
	if a.State != job.Done || b.State != job.Done {
		t.Fatalf("states %v %v", a.State, b.State)
	}
	// b's file could not be cached while a's was pinned; it must have
	// gone through the transient staging path and b still completed.
	if len(fx.done) != 2 {
		t.Fatalf("done = %d", len(fx.done))
	}
}

func TestTransientStagingNotRegistered(t *testing.T) {
	fx := newFixture(t, 1, 1e9, 10)
	fx.defineFile(t, 1, 1e9, 0) // master fills capacity entirely
	fx.defineFile(t, 2, 1e9, 2)
	j := fx.submit([]storage.FileID{2}, 100)
	fx.eng.Run()
	if j.State != job.Done {
		t.Fatalf("state = %v", j.State)
	}
	if fx.cat.HasReplica(2, 0) {
		t.Fatal("transient staging must not be registered as a replica")
	}
	if fx.site.Store().Peek(2) {
		t.Fatal("transient file still resident after job done")
	}
}

func TestReceiveReplicaSatisfiesWaiters(t *testing.T) {
	fx := newFixture(t, 1, 0, 1e9) // fetch would take "forever"
	fx.defineFile(t, 1, 1e9, 2)
	j := fx.submit([]storage.FileID{1}, 100)
	// A DS push lands at t=20, long before the fetch would.
	fx.eng.Schedule(20, func() { fx.site.ReceiveReplica(1, 1e9) })
	fx.eng.RunUntil(1000)
	if j.State != job.Done {
		t.Fatalf("state = %v; push did not satisfy waiter", j.State)
	}
	if j.StartTime != 20 {
		t.Fatalf("start = %v, want 20", j.StartTime)
	}
}

func TestPopularityDrain(t *testing.T) {
	fx := newFixture(t, 2, 0, 10)
	fx.defineFile(t, 1, 1e9, 0)
	fx.defineFile(t, 2, 1e9, 0)
	opened := 0
	fx.site.onWindowOpen = func(id topology.SiteID) {
		if id != 0 || !fx.site.WindowEmpty() {
			t.Errorf("window-open hook for site %d with a non-empty window", id)
		}
		opened++
	}
	fx.submit([]storage.FileID{1}, 100)
	fx.submit([]storage.FileID{1}, 100)
	fx.submit([]storage.FileID{2}, 100)
	fx.site.RecordRemoteRequest(1, 3)
	pops := fx.site.DrainPopularity()
	if len(pops) != 2 {
		t.Fatalf("pops = %v", pops)
	}
	if pops[0].File != 1 || pops[0].Count != 3 {
		t.Fatalf("top = %+v, want file 1 count 3", pops[0])
	}
	if want := []scheduler.RequesterCount{{Site: 0, Count: 2}, {Site: 3, Count: 1}}; !slices.Equal(pops[0].ByRequester, want) {
		t.Fatalf("ByRequester = %v, want %v", pops[0].ByRequester, want)
	}
	// Drained: second call is empty.
	if got := fx.site.DrainPopularity(); len(got) != 0 || !fx.site.WindowEmpty() {
		t.Fatalf("second drain = %v", got)
	}
	// The hook fires on the first access of each window only, local or
	// remote.
	fx.site.RecordRemoteRequest(2, 1)
	fx.site.RecordRemoteRequest(2, 1)
	if opened != 2 || fx.site.WindowEmpty() {
		t.Fatalf("window opened %d times, want 2", opened)
	}
}

func TestDrainSkipsNonResident(t *testing.T) {
	fx := newFixture(t, 2, 0, 1e9)
	fx.defineFile(t, 1, 1e9, 2) // remote; fetch won't land during test
	fx.submit([]storage.FileID{1}, 100)
	pops := fx.site.DrainPopularity()
	if len(pops) != 0 {
		t.Fatalf("non-resident file reported popular: %v", pops)
	}
}

func TestDeleteReplicaAndIdleFiles(t *testing.T) {
	fx := newFixture(t, 2, 0, 10)
	fx.defineFile(t, 1, 1e9, 0) // master
	fx.defineFile(t, 2, 1e9, 2) // will be fetched and cached
	fx.defineFile(t, 3, 1e9, 3) // fetch stays in flight
	j := fx.submit([]storage.FileID{2}, 50)
	fx.eng.Run()
	if j.State != job.Done {
		t.Fatal("job not done")
	}
	idle := fx.site.CachedIdleFiles()
	if len(idle) != 1 || idle[0] != 2 {
		t.Fatalf("CachedIdleFiles = %v, want [2]", idle)
	}
	// Masters cannot be deleted; cached replica can.
	if fx.site.DeleteReplica(1) {
		t.Fatal("deleted a master")
	}
	if !fx.site.DeleteReplica(2) {
		t.Fatal("failed to delete idle replica")
	}
	if fx.cat.HasReplica(2, 0) {
		t.Fatal("catalog still lists the deleted replica")
	}
	// A file with a fetch in flight must not be deletable.
	fx.mover.delay = 1e9
	fx.submit([]storage.FileID{3}, 50)
	if fx.site.DeleteReplica(3) {
		t.Fatal("deleted a file with a pending fetch")
	}
}

func TestLoadMetric(t *testing.T) {
	fx := newFixture(t, 1, 0, 1e9)
	fx.defineFile(t, 1, 1e9, 2)
	if fx.site.QueueLen() != 0 {
		t.Fatal("fresh site has load")
	}
	fx.submit([]storage.FileID{1}, 100)
	fx.submit([]storage.FileID{1}, 100)
	if fx.site.QueueLen() != 2 {
		t.Fatalf("load = %d, want 2", fx.site.QueueLen())
	}
}

func TestInvalidCEs(t *testing.T) {
	fx := newFixture(t, 1, 0, 0)
	if _, err := New(fx.eng, fx.topo, fx.cat, fx.mover, ls.FIFO{}, Config{ID: 1, CEs: 0}, nil); err == nil {
		t.Fatal("expected error for 0 CEs")
	}
}

func TestManyJobsConservation(t *testing.T) {
	fx := newFixture(t, 3, 5e9, 25)
	src := rng.New(11)
	for f := storage.FileID(0); f < 10; f++ {
		master := topology.SiteID(0)
		if f%2 == 1 {
			master = topology.SiteID(src.IntRange(1, 3))
		}
		fx.defineFile(t, f, src.Range(0.5e9, 2e9), master)
	}
	const n = 200
	for i := 0; i < n; i++ {
		f := storage.FileID(src.Intn(10))
		delay := src.Range(0, 500)
		fx.eng.Schedule(delay, func() { fx.submit([]storage.FileID{f}, src.Range(10, 300)) })
	}
	fx.eng.Run()
	if len(fx.done) != n {
		t.Fatalf("done = %d, want %d", len(fx.done), n)
	}
	for _, j := range fx.done {
		if j.EndTime < j.StartTime || j.StartTime < j.DispatchTime {
			t.Fatalf("job %d has inverted timestamps", j.ID)
		}
		if d := j.EndTime - j.StartTime - j.ComputeTime; d > 1e-6 || d < -1e-6 {
			t.Fatalf("job %d ran %v, want %v", j.ID, j.EndTime-j.StartTime, j.ComputeTime)
		}
	}
	if fx.site.Busy() != 0 || fx.site.QueueLen() != 0 {
		t.Fatal("site not drained")
	}
}
