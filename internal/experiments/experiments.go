// Package experiments defines the paper's evaluation campaign — "a total
// of 72 simulation experiments. For each of our 4x3=12 pairs of scheduling
// algorithms, we ran six experiments: three with data grid parameters as
// above and three with network bandwidth increased by a factor of ten"
// (§5.2) — and a parallel runner that executes them across CPU cores.
//
// Independent simulations are the natural unit of parallelism here: each
// simulation itself is a deterministic single-threaded event loop, so
// results are bit-identical regardless of worker count.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"chicsim/internal/core"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/stats"
)

// Cell identifies one (ES, DS, bandwidth) combination in the campaign.
// SiteMTBF, when > 0, additionally subjects the cell to site-crash fault
// injection at that mean time between failures (degraded-grid sweeps).
// Param, when set, names a sensitivity parameter (see SensitivityCells)
// that the cell sets to Value. Both are omitted from JSON when zero, so a
// cell without a parameter keeps its wire form in streams, fabric
// journals and campaign IDs.
type Cell struct {
	ES            string
	DS            string
	BandwidthMBps float64
	SiteMTBF      float64
	Param         string  `json:",omitempty"`
	Value         float64 `json:",omitempty"`
}

func (c Cell) String() string {
	s := fmt.Sprintf("%s+%s@%gMB/s", c.ES, c.DS, c.BandwidthMBps)
	if c.SiteMTBF > 0 {
		s += fmt.Sprintf("/mtbf=%gs", c.SiteMTBF)
	}
	if c.Param != "" {
		s += fmt.Sprintf("/%s=%g", c.Param, c.Value)
	}
	return s
}

// Validate rejects a Param no sweep defines. Cells arrive from outside
// the process (fabric submissions, -from-jsonl files), so an unknown
// name is an input error, not a bug.
func (c Cell) Validate() error {
	if c.Param != "" && paramSetter(c.Param) == nil {
		return fmt.Errorf("experiments: cell %v: unknown parameter %q", c, c.Param)
	}
	return nil
}

// apply sets the cell's coordinates on cfg: ES, DS and bandwidth, site
// crashes when SiteMTBF > 0, then Param last, so a bandwidth sweep point
// overrides the cell's bandwidth. An unknown Param is reported, not run.
func (c Cell) apply(cfg *core.Config) error {
	cfg.ES, cfg.DS, cfg.BandwidthMBps = c.ES, c.DS, c.BandwidthMBps
	if c.SiteMTBF > 0 {
		cfg.Faults.SiteCrash.MTBF = c.SiteMTBF
		if cfg.Faults.SiteCrash.MTTR == 0 {
			cfg.Faults.SiteCrash.MTTR = 600
		}
	}
	if c.Param == "" {
		return nil
	}
	set := paramSetter(c.Param)
	if set == nil {
		return c.Validate()
	}
	set(cfg, c.Value)
	return nil
}

// sensitivityParams is the calibration study behind the defaults in
// DESIGN.md: each model parameter the paper's Table 1 leaves unspecified,
// the Config field it sets, and the values swept.
var sensitivityParams = []struct {
	name   string
	values []float64
	set    func(*core.Config, float64)
}{
	{"storage", []float64{10, 15, 25, 50, 100, 0}, // GB; 0 = unlimited
		func(c *core.Config, v float64) { c.StorageGB = v }},
	{"geomp", []float64{0.02, 0.05, 0.1, 0.2, 0.4},
		func(c *core.Config, v float64) { c.GeomP = v }},
	{"ds-threshold", []float64{1, 3, 6, 12, 24},
		func(c *core.Config, v float64) { c.DSThreshold = int(v) }},
	{"ds-interval", []float64{60, 150, 300, 600, 1200},
		func(c *core.Config, v float64) { c.DSInterval = v }},
	{"staleness", []float64{0, 15, 30, 120, 600},
		func(c *core.Config, v float64) { c.InfoStaleness = v }},
	{"bandwidth", []float64{5, 10, 25, 50, 100},
		func(c *core.Config, v float64) { c.BandwidthMBps = v }},
}

// paramSetter returns the Config setter for a sensitivity parameter, or
// nil when no sweep defines name.
func paramSetter(name string) func(*core.Config, float64) {
	for _, p := range sensitivityParams {
		if p.name == name {
			return p.set
		}
	}
	return nil
}

// CellResult aggregates one cell's seed replications.
type CellResult struct {
	Cell Cell
	Runs []core.Results
	Err  error // first failure, if any

	AvgResponseSec  float64 // mean over seeds
	StdResponseSec  float64
	CI95ResponseSec float64 // half-width of the 95% CI over seeds
	AvgDataPerJobMB float64
	AvgIdleFrac     float64

	// Response-time decomposition, mean over seeds of each run's per-job
	// means. The four components sum to AvgResponseSec (each run's do),
	// so the campaign tables can show *where* response time goes per cell.
	AvgDispatchWaitSec float64
	AvgDataWaitSec     float64
	AvgCPUWaitSec      float64
	AvgExecSec         float64
}

// ResponseSamples returns the per-seed response means (for significance
// tests between cells).
func (cr *CellResult) ResponseSamples() []float64 {
	out := make([]float64, 0, len(cr.Runs))
	for _, r := range cr.Runs {
		out = append(out, r.AvgResponseSec)
	}
	return out
}

// aggregate fills the derived fields from Runs.
func (cr *CellResult) aggregate() {
	if len(cr.Runs) == 0 {
		return
	}
	var data, idle []float64
	var disp, dwait, cpu, exec []float64
	for _, r := range cr.Runs {
		data = append(data, r.AvgDataPerJobMB)
		idle = append(idle, r.IdleFrac)
		disp = append(disp, r.AvgDispatchWaitSec)
		dwait = append(dwait, r.AvgDataWaitSec)
		cpu = append(cpu, r.AvgCPUWaitSec)
		exec = append(exec, r.AvgExecSec)
	}
	sum := stats.Summarize(cr.ResponseSamples())
	cr.AvgResponseSec = sum.Mean
	cr.StdResponseSec = sum.StdDev
	cr.CI95ResponseSec = sum.CI95
	cr.AvgDataPerJobMB = stats.Mean(data)
	cr.AvgIdleFrac = stats.Mean(idle)
	cr.AvgDispatchWaitSec = stats.Mean(disp)
	cr.AvgDataWaitSec = stats.Mean(dwait)
	cr.AvgCPUWaitSec = stats.Mean(cpu)
	cr.AvgExecSec = stats.Mean(exec)
}

// CompareResponse runs Welch's t-test on the per-seed response times of
// two cells, answering the paper's "no significant performance
// difference" style questions (§5.2: DataRandom vs DataLeastLoaded).
func CompareResponse(a, b *CellResult) (stats.TTestResult, error) {
	return stats.WelchTTest(a.ResponseSamples(), b.ResponseSamples())
}

// Campaign describes a set of cells to run with seed replication.
type Campaign struct {
	Base    core.Config // template; ES/DS/Bandwidth/Seed overridden per run
	Cells   []Cell
	Seeds   []uint64
	Workers int // <= 0: GOMAXPROCS

	// ObsInterval, when > 0, attaches the probe registry to every
	// simulation (overriding Base.ObsInterval) so each run's Results
	// carry a per-site time series. Each simulation samples on its own
	// virtual clock, so series are bit-identical regardless of Workers.
	ObsInterval float64

	// Progress, when non-nil, receives wall-clock telemetry (runs
	// done/total, sims/sec, ETA, worker occupancy) as workers pick up
	// and finish simulations. May be nil.
	Progress *obs.Progress

	// Metrics, when non-nil, is shared by every simulation in the
	// campaign: counters and histograms merge deterministically across
	// workers (the updates commute); gauges are last-write-wins between
	// concurrently running simulations. The runner adds its own
	// campaign_runs_total / campaign_cells_total counters. Requires an
	// effective ObsInterval > 0 (here or in Base), or every run errors.
	Metrics *registry.Registry

	// Watchdog applies the given invariant-check mode to every run; a
	// Fail-mode violation surfaces as that cell's Err. Requires an
	// effective ObsInterval > 0.
	Watchdog watchdog.Mode

	// OnViolation, when non-nil, observes watchdog violations from any
	// run. Called concurrently from worker goroutines.
	OnViolation func(cell Cell, seed uint64, v watchdog.Violation)

	// OnRunStart, when non-nil, is called as a worker picks up a run.
	// Called concurrently from worker goroutines.
	OnRunStart func(cell Cell, seed uint64)

	// OnRunDone, when non-nil, observes every finished run. Calls are
	// serialized in the collector goroutine (safe for unsynchronized
	// sinks), but their order across cells is scheduling-dependent.
	OnRunDone func(cell Cell, seed uint64, err error)

	// OnCellDone, when non-nil, receives each cell the moment its last
	// seed finishes, fully aggregated with Runs sorted by seed. Calls
	// are serialized in the collector goroutine — the JSONL streaming
	// hook. Cell completion order is scheduling-dependent; the slice
	// Run returns is always in campaign cell order.
	OnCellDone func(*CellResult)

	// DropRuns releases each cell's per-run Results right after the
	// cell aggregates (and OnCellDone observes it), bounding campaign
	// memory to in-flight cells instead of the whole result matrix.
	// Aggregates and Err survive; Runs come back nil.
	DropRuns bool
}

// PaperSeeds are the default three seed replications ("within each set of
// three, we ran with different random seeds").
func PaperSeeds() []uint64 { return []uint64{1, 2, 3} }

// PaperCells returns the paper's full 12-pair campaign at the given
// bandwidth.
func PaperCells(bandwidthMBps float64) []Cell {
	var cells []Cell
	for _, dsName := range core.PaperDatasetNames() {
		for _, esName := range core.PaperExternalNames() {
			cells = append(cells, Cell{ES: esName, DS: dsName, BandwidthMBps: bandwidthMBps})
		}
	}
	return cells
}

// Figure5Cells returns the 4 ES × {10, 100} MB/s cells with
// DataLeastLoaded, matching Figure 5.
func Figure5Cells() []Cell {
	var cells []Cell
	for _, bw := range []float64{10, 100} {
		for _, esName := range core.PaperExternalNames() {
			cells = append(cells, Cell{ES: esName, DS: "DataLeastLoaded", BandwidthMBps: bw})
		}
	}
	return cells
}

// FaultSweepCells returns the degraded-grid sweep: the paper's winning
// pair (JobDataPresent+DataLeastLoaded) against the random baseline
// (JobRandom+DataRandom), each at every site-crash MTBF in mtbfs. An
// MTBF of 0 is the failure-free control column.
func FaultSweepCells(bandwidthMBps float64, mtbfs []float64) []Cell {
	pairs := []struct{ es, ds string }{
		{"JobDataPresent", "DataLeastLoaded"},
		{"JobRandom", "DataRandom"},
	}
	var cells []Cell
	for _, p := range pairs {
		for _, mtbf := range mtbfs {
			cells = append(cells, Cell{ES: p.es, DS: p.ds, BandwidthMBps: bandwidthMBps, SiteMTBF: mtbf})
		}
	}
	return cells
}

// FeedbackSweepCells returns the adaptive-vs-static sweep: the feedback
// pair (JobFeedback+DataFeedback) against the paper's strongest static
// pairs, each at the given bandwidth and at every site-crash MTBF in
// mtbfs (0 = failure-free column). Run it on a contended base config
// (e.g. InfoStaleness raised to 120 s) to expose the stale-information
// herding the telemetry loop corrects.
func FeedbackSweepCells(bandwidthMBps float64, mtbfs []float64) []Cell {
	pairs := []struct{ es, ds string }{
		{"JobFeedback", "DataFeedback"},
		{"JobDataPresent", "DataLeastLoaded"},
		{"JobDataPresent", "DataRandom"},
		{"JobLeastLoaded", "DataLeastLoaded"},
	}
	var cells []Cell
	for _, p := range pairs {
		for _, mtbf := range mtbfs {
			cells = append(cells, Cell{ES: p.es, DS: p.ds, BandwidthMBps: bandwidthMBps, SiteMTBF: mtbf})
		}
	}
	return cells
}

// SensitivityCells returns the sensitivity study: every sweep point of
// every parameter Table 1 leaves unspecified, each for the headline
// comparison of decoupled JobDataPresent+DataLeastLoaded against the best
// coupled baseline JobLocal+DataDoNothing. Cells carry the base
// bandwidth (10 MB/s) except on the bandwidth sweep, where it is the
// swept value.
func SensitivityCells() []Cell {
	var cells []Cell
	for _, p := range sensitivityParams {
		for _, v := range p.values {
			bw := 10.0
			if p.name == "bandwidth" {
				bw = v
			}
			for _, pair := range []struct{ es, ds string }{
				{"JobDataPresent", "DataLeastLoaded"},
				{"JobLocal", "DataDoNothing"},
			} {
				cells = append(cells, Cell{ES: pair.es, DS: pair.ds, BandwidthMBps: bw, Param: p.name, Value: v})
			}
		}
	}
	return cells
}

// FullPaperCampaign returns all 72 experiments: 12 pairs × 2 bandwidths
// (cells) × 3 seeds (replications).
func FullPaperCampaign(base core.Config) Campaign {
	cells := append(PaperCells(10), PaperCells(100)...)
	return Campaign{Base: base, Cells: cells, Seeds: PaperSeeds()}
}

// Run executes the campaign, farming independent simulations out to
// worker goroutines, and returns per-cell aggregates in cell order.
func Run(c Campaign) []CellResult {
	if len(c.Seeds) == 0 {
		c.Seeds = PaperSeeds()
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c.Progress.SetWorkers(workers)

	type task struct {
		cell int
		seed uint64
	}
	type outcome struct {
		cell int
		seed uint64
		res  core.Results
		err  error
	}
	tasks := make(chan task)
	outcomes := make(chan outcome)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				cfg := c.Base
				err := c.Cells[t.cell].apply(&cfg)
				cfg.Seed = t.seed
				if c.ObsInterval > 0 {
					cfg.ObsInterval = c.ObsInterval
				}
				cfg.Metrics = c.Metrics
				cfg.Watchdog = c.Watchdog
				if c.OnViolation != nil {
					cell, seed := c.Cells[t.cell], t.seed
					cfg.OnViolation = func(v watchdog.Violation) { c.OnViolation(cell, seed, v) }
				}
				if c.OnRunStart != nil {
					c.OnRunStart(c.Cells[t.cell], t.seed)
				}
				c.Progress.RunStart()
				// Tag the run for CPU profiles: `go tool pprof -tagfocus`
				// can then attribute samples to a single campaign cell or
				// seed when hunting kernel hot spots.
				var res core.Results
				if err == nil {
					pprof.Do(context.Background(), pprof.Labels(
						"cell", c.Cells[t.cell].String(),
						"seed", strconv.FormatUint(t.seed, 10),
					), func(context.Context) {
						res, err = core.RunConfig(cfg)
					})
				}
				c.Progress.RunDone(fmt.Sprintf("%v seed=%d", c.Cells[t.cell], t.seed))
				outcomes <- outcome{cell: t.cell, seed: t.seed, res: res, err: err}
			}
		}()
	}
	go func() {
		for i := range c.Cells {
			for _, seed := range c.Seeds {
				tasks <- task{cell: i, seed: seed}
			}
		}
		close(tasks)
		wg.Wait()
		close(outcomes)
	}()

	var runsOK, runsErr, cellsDone registry.Counter
	if c.Metrics != nil {
		rt := c.Metrics.Counter("campaign_runs_total",
			"Simulations finished by the campaign runner, by outcome.", "status")
		runsOK, runsErr = rt.With("ok"), rt.With("error")
		cellsDone = c.Metrics.Counter("campaign_cells_total",
			"Campaign cells fully completed (all seeds in).").With()
	}

	results := make([]CellResult, len(c.Cells))
	pending := make([]int, len(c.Cells))
	for i := range results {
		results[i].Cell = c.Cells[i]
		pending[i] = len(c.Seeds)
	}
	// The collector (this loop) is the only goroutine touching results,
	// so every callback fired here runs serialized.
	for o := range outcomes {
		cr := &results[o.cell]
		if o.err != nil {
			if cr.Err == nil {
				cr.Err = o.err
			}
			runsErr.Inc()
		} else {
			cr.Runs = append(cr.Runs, o.res)
			runsOK.Inc()
		}
		if c.OnRunDone != nil {
			c.OnRunDone(c.Cells[o.cell], o.seed, o.err)
		}
		if pending[o.cell]--; pending[o.cell] == 0 {
			// Seed order within a cell is nondeterministic from the
			// channel; sort before aggregating so float summation order —
			// and therefore every aggregate — is byte-stable across
			// worker counts.
			sort.Slice(cr.Runs, func(a, b int) bool {
				return cr.Runs[a].Seed < cr.Runs[b].Seed
			})
			cr.aggregate()
			cellsDone.Inc()
			if c.OnCellDone != nil {
				c.OnCellDone(cr)
			}
			if c.DropRuns {
				cr.Runs = nil
			}
		}
	}
	return results
}

// FindBandwidthCrossover bisects for the link bandwidth at which two
// External Scheduler algorithms reach equal average response time — the
// crossover the paper's §5.3 observes between data-moving policies
// (JobLocal) and job-moving policies (JobDataPresent) as networks speed
// up. Both algorithms use the base config's DS. The responses must
// bracket the crossover at lo and hi (one algorithm faster at each end);
// otherwise an error is returned. Each probe averages the given seeds.
func FindBandwidthCrossover(base core.Config, esA, esB string, lo, hi, tolMBps float64, seeds []uint64) (float64, error) {
	if lo <= 0 || hi <= lo || tolMBps <= 0 {
		return 0, fmt.Errorf("experiments: invalid bracket [%v, %v] tol %v", lo, hi, tolMBps)
	}
	if len(seeds) == 0 {
		seeds = PaperSeeds()
	}
	diff := func(bw float64) (float64, error) {
		var dA, dB float64
		for _, seed := range seeds {
			for _, esName := range []string{esA, esB} {
				cfg := base
				cfg.ES = esName
				cfg.BandwidthMBps = bw
				cfg.Seed = seed
				res, err := core.RunConfig(cfg)
				if err != nil {
					return 0, err
				}
				if esName == esA {
					dA += res.AvgResponseSec
				} else {
					dB += res.AvgResponseSec
				}
			}
		}
		return dA - dB, nil
	}
	dLo, err := diff(lo)
	if err != nil {
		return 0, err
	}
	dHi, err := diff(hi)
	if err != nil {
		return 0, err
	}
	if dLo == 0 {
		return lo, nil
	}
	if dHi == 0 {
		return hi, nil
	}
	if (dLo > 0) == (dHi > 0) {
		return 0, fmt.Errorf("experiments: no crossover in [%v, %v] MB/s (diffs %v, %v)", lo, hi, dLo, dHi)
	}
	for hi-lo > tolMBps {
		mid := (lo + hi) / 2
		dMid, err := diff(mid)
		if err != nil {
			return 0, err
		}
		if dMid == 0 {
			return mid, nil
		}
		if (dMid > 0) == (dLo > 0) {
			lo, dLo = mid, dMid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ByCell indexes results for lookup in assertions and report code.
func ByCell(results []CellResult) map[Cell]*CellResult {
	m := make(map[Cell]*CellResult, len(results))
	for i := range results {
		m[results[i].Cell] = &results[i]
	}
	return m
}
