package kernelbench

import (
	"runtime"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/desim"
	"chicsim/internal/job"
	"chicsim/internal/metrics"
	"chicsim/internal/rng"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// ResultsMemory returns a benchmark body that streams `jobs` synthetic
// completed jobs through one metrics.Collector per iteration and then
// Summarizes — the whole results pipeline of a run, isolated from the
// simulation kernel. One Job struct is reused for every synthetic
// completion, so allocs/op and B/op charge the collector alone: full
// mode is built with the job count, as a simulation builds it, and keeps
// one 8-byte response time per job in a buffer allocated once (linear in
// jobs); bounded mode touches fixed-size sketches (flat). The run's
// retained results memory is reported as live-results-bytes, measured on
// the final iteration while the collector is still holding its state.
func ResultsMemory(mode string, jobs int) func(*testing.B) {
	return func(b *testing.B) {
		j := job.New(0, 0, 0, make([]storage.FileID, 1), 60)
		j.State = job.Done
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			var c *metrics.Collector
			if mode == core.ResultModeBounded {
				c = metrics.NewBounded(rng.New(1).Derive("results"))
			} else {
				c = metrics.NewCollector(jobs)
			}
			for i := 0; i < jobs; i++ {
				j.ID = job.ID(i)
				j.Site = topology.SiteID(i % 30)
				j.Inputs[0] = storage.FileID(i % 997)
				t := desim.Time(i)
				j.SubmitTime = t
				j.DispatchTime = t + 1
				j.DataReady = t + 5
				j.StartTime = t + 10
				j.EndTime = t + 10 + desim.Time(60+i%120)
				c.JobDone(j)
			}
			if n == b.N-1 {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				live := float64(0)
				if ms.HeapAlloc > base {
					live = float64(ms.HeapAlloc - base)
				}
				b.ReportMetric(live, "live-results-bytes")
				b.StartTimer()
			}
			if res := c.Summarize(float64(jobs)*60, 30); res.JobsDone != jobs {
				b.Fatalf("JobsDone = %d, want %d", res.JobsDone, jobs)
			}
		}
	}
}
