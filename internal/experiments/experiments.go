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
	"chicsim/internal/netsim"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/stats"
)

// Cell identifies one (ES, DS, bandwidth) combination in the campaign.
// SiteMTBF, when > 0, additionally subjects the cell to site-crash fault
// injection at that mean time between failures (the degraded-grid
// studies), with crashed sites' jobs requeued and replicas restored.
// Param, when set, names a parameter of the params table that the cell
// sets to Value, or to Level when the parameter is categorical. All three
// are omitted from JSON when zero, so a cell without a parameter keeps
// its wire form in streams, fabric journals and campaign IDs.
type Cell struct {
	ES            string
	DS            string
	BandwidthMBps float64
	SiteMTBF      float64
	Param         string  `json:",omitempty"`
	Value         float64 `json:",omitempty"`
	Level         string  `json:",omitempty"`
}

func (c Cell) String() string {
	s := fmt.Sprintf("%s+%s@%gMB/s", c.ES, c.DS, c.BandwidthMBps)
	if c.SiteMTBF > 0 {
		s += fmt.Sprintf("/mtbf=%gs", c.SiteMTBF)
	}
	if c.Level != "" {
		s += fmt.Sprintf("/%s=%s", c.Param, c.Level)
	} else if c.Param != "" {
		s += fmt.Sprintf("/%s=%g", c.Param, c.Value)
	}
	return s
}

// Validate rejects a Param no sweep defines, and a Level its parameter
// does not have. Cells arrive from outside the process (fabric
// submissions, -from-jsonl files), so an unknown name is an input error,
// not a bug.
func (c Cell) Validate() error {
	if c.Param == "" && c.Level == "" {
		return nil
	}
	p := lookupParam(c.Param)
	if p == nil {
		return fmt.Errorf("experiments: cell %v: unknown parameter %q", c, c.Param)
	}
	if (p.levels == nil && c.Level != "") || (p.levels != nil && p.levels[c.Level] == nil) {
		return fmt.Errorf("experiments: cell %v: unknown level %q of parameter %q", c, c.Level, c.Param)
	}
	return nil
}

// apply sets the cell's coordinates on cfg: ES, DS and bandwidth, site
// crashes and their recovery policy when SiteMTBF > 0, then Param last,
// so a bandwidth sweep point overrides the cell's bandwidth. An invalid
// cell is reported, not run.
func (c Cell) apply(cfg *core.Config) error {
	cfg.ES, cfg.DS, cfg.BandwidthMBps = c.ES, c.DS, c.BandwidthMBps
	if c.SiteMTBF > 0 {
		cfg.Faults.SiteCrash.MTBF = c.SiteMTBF
		cfg.Faults.RequeueOnRecovery, cfg.Faults.RestoreReplicas = true, true
		cfg.Faults = cfg.Faults.WithRepairDefaults()
	}
	if err := c.Validate(); err != nil || c.Param == "" {
		return err
	}
	if p := lookupParam(c.Param); p.levels != nil {
		p.levels[c.Level](cfg)
	} else {
		p.set(cfg, c.Value)
	}
	return nil
}

// param is one Config knob a cell can set: numeric ones through set,
// categorical ones through the setter of a named level.
type param struct {
	name   string
	values []float64 // the sensitivity sweep; nil for an ablation-only knob
	set    func(*core.Config, float64)
	levels map[string]func(*core.Config)
}

// params lists every knob a Cell can name. The first six are the
// calibration study behind the defaults in DESIGN.md: each model
// parameter the paper's Table 1 leaves unspecified, with the values
// swept. The rest are the extension choices Ablations varies; a setter
// also applies the companion settings its ablation holds on every arm,
// the control included.
var params = []param{
	{name: "storage", values: []float64{10, 15, 25, 50, 100, 0}, // GB; 0 = unlimited
		set: func(c *core.Config, v float64) { c.StorageGB = v }},
	{name: "geomp", values: []float64{0.02, 0.05, 0.1, 0.2, 0.4},
		set: func(c *core.Config, v float64) { c.GeomP = v }},
	{name: "ds-threshold", values: []float64{1, 3, 6, 12, 24},
		set: func(c *core.Config, v float64) { c.DSThreshold = int(v) }},
	{name: "ds-interval", values: []float64{60, 150, 300, 600, 1200},
		set: func(c *core.Config, v float64) { c.DSInterval = v }},
	{name: "staleness", values: []float64{0, 15, 30, 120, 600},
		set: func(c *core.Config, v float64) { c.InfoStaleness = v }},
	{name: "bandwidth", values: []float64{5, 10, 25, 50, 100},
		set: func(c *core.Config, v float64) { c.BandwidthMBps = v }},
	// Heavier jobs at half the jobs, so the total work stays comparable.
	{name: "inputs", set: func(c *core.Config, v float64) { c.InputsPerJob, c.TotalJobs = int(v), 3000 }},
	// Deletion only matters once storage is under pressure.
	{name: "ds-delete-after", set: func(c *core.Config, v float64) { c.DSDeleteAfter, c.StorageGB = int(v), 15 }},
	{name: "user-focus", set: func(c *core.Config, v float64) { c.UserFocus = v }},
	{name: "cpu-spread", set: func(c *core.Config, v float64) { c.CPUSpreadFrac = v }},
	{name: "output", set: func(c *core.Config, v float64) { c.OutputFraction = v }},
	{name: "backbone", set: func(c *core.Config, v float64) { c.BackboneMBps = v }},
	{name: "ls", levels: map[string]func(*core.Config){
		"SJF":  func(c *core.Config) { c.LS = "SJF" },
		"LIFO": func(c *core.Config) { c.LS = "LIFO" },
	}},
	{name: "sharing", levels: map[string]func(*core.Config){
		"MaxMinFair": func(c *core.Config) { c.Sharing = netsim.MaxMinFair },
	}},
	{name: "mapping", levels: map[string]func(*core.Config){
		"central":  func(c *core.Config) { c.Mapping = core.ESCentral },
		"per-user": func(c *core.Config) { c.Mapping = core.ESPerUser },
	}},
	{name: "batch", levels: map[string]func(*core.Config){
		"BatchMinMin":    func(c *core.Config) { c.BatchES, c.BatchWindow = "BatchMinMin", 120 },
		"BatchMaxMin":    func(c *core.Config) { c.BatchES, c.BatchWindow = "BatchMaxMin", 120 },
		"BatchSufferage": func(c *core.Config) { c.BatchES, c.BatchWindow = "BatchSufferage", 120 },
	}},
	// A GriPhyN-style hierarchy with provisioned tiers: 30 leaves at depth 3.
	{name: "tiers", levels: map[string]func(*core.Config){
		"four-level": func(c *core.Config) { c.Tiers, c.TierBandwidthsMBps = []int{5, 3, 2}, []float64{40, 20, 10} },
	}},
	{name: "info", levels: map[string]func(*core.Config){
		"regional-view": func(c *core.Config) { c.RegionalInfo = true },
	}},
	{name: "submission", levels: map[string]func(*core.Config){
		"think-300s":    func(c *core.Config) { c.ThinkTimeMean = 300 },
		"open-1per600s": func(c *core.Config) { c.ArrivalRate = 1.0 / 600 },
	}},
}

// lookupParam returns the params entry called name, or nil.
func lookupParam(name string) *param {
	for i := range params {
		if params[i].name == name {
			return &params[i]
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

// PairedResponseDelta summarizes arm's per-seed mean response minus
// control's, pairing runs on Results.Seed; a seed only one cell ran is
// left out. Both cells draw their workload from the same seed, so the
// pairing cancels much of the seed-to-seed spread.
func PairedResponseDelta(control, arm *CellResult) stats.Summary {
	base := make(map[uint64]float64, len(control.Runs))
	for _, r := range control.Runs {
		base[r.Seed] = r.AvgResponseSec
	}
	var diffs []float64
	for _, r := range arm.Runs {
		if b, ok := base[r.Seed]; ok {
			diffs = append(diffs, r.AvgResponseSec-b)
		}
	}
	return stats.Summarize(diffs)
}

// CompareResponse runs Welch's t-test on the per-seed response times of
// two cells, answering the paper's "no significant performance
// difference" style questions (§5.2: DataRandom vs DataLeastLoaded).
func CompareResponse(a, b *CellResult) (stats.TTestResult, error) {
	return stats.WelchTTest(a.ResponseSamples(), b.ResponseSamples())
}

// Campaign describes a set of cells to run with seed replication.
//
// Base carries the observation settings to every run. With
// Base.ObsInterval > 0 every run ticks its observation pass on its own
// virtual clock. Runs keep no probe series, and Base.ObsSink would be
// called by every run at once, so leave it nil: chicsim -obs-stream with
// a run's cell, seed and base flags writes that run's probe rows, the
// same bytes for any Workers. Base.Metrics, when non-nil, receives every
// run: each simulation writes a registry of its own, and
// the runner folds them into Base.Metrics in (cell, seed) order as soon
// as every earlier run has finished, so the exposition is the same for
// any Workers and a gauge holds the last folded run's final value. The
// runner adds its own campaign_runs_total / campaign_cells_total
// counters to it. Base.Watchdog applies to every run; a Fail-mode
// violation surfaces as that cell's Err. Both need Base.ObsInterval > 0,
// or every run errors.
type Campaign struct {
	Base    core.Config // template; the cell's coordinates and Seed set per run
	Cells   []Cell
	Seeds   []uint64
	Workers int // <= 0: GOMAXPROCS

	// Progress, when non-nil, receives wall-clock telemetry (runs
	// done/total, sims/sec, ETA, worker occupancy) as workers pick up
	// and finish simulations. May be nil.
	Progress *obs.Progress

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

// SensitivityCells returns the sensitivity study: every sweep point of
// every parameter Table 1 leaves unspecified, each for the headline
// comparison of decoupled JobDataPresent+DataLeastLoaded against the best
// coupled baseline JobLocal+DataDoNothing. Cells carry the base
// bandwidth (10 MB/s) except on the bandwidth sweep, where it is the
// swept value.
func SensitivityCells() []Cell {
	var cells []Cell
	for _, p := range params {
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

// Ablation is one design-choice study of DESIGN.md §6. Arms[0] is the
// control; every other arm changes that one choice against it.
type Ablation struct {
	Name string
	Arms []Cell
}

// Ablations returns the design-choice studies behind EXPERIMENTS.md
// "Extension results", on the Table 1 grid at 10 MB/s unless a study
// varies the bandwidth. The arms that run DefaultConfig unchanged share
// one cell, the paper's winning pair.
func Ablations() []Ablation {
	def := Cell{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10}
	remote := Cell{ES: "JobLeastLoaded", DS: "DataLeastLoaded", BandwidthMBps: 10} // jobs run away from their data
	heavy := Cell{ES: "JobLeastLoaded", DS: "DataDoNothing", BandwidthMBps: 10}    // the transfer-heavy pair
	at := func(c Cell, param string, v float64) Cell { c.Param, c.Value = param, v; return c }
	is := func(c Cell, param, level string) Cell { c.Param, c.Level = param, level; return c }
	ds := []Cell{def}
	for _, name := range core.DatasetNames() {
		if name != def.DS {
			ds = append(ds, Cell{ES: def.ES, DS: name, BandwidthMBps: 10})
		}
	}
	adaptive := func(bw float64) []Cell {
		var arms []Cell
		for _, es := range []string{"JobDataPresent", "JobLocal", "JobAdaptive"} {
			arms = append(arms, Cell{ES: es, DS: "DataLeastLoaded", BandwidthMBps: bw})
		}
		return arms
	}
	crashes := func(c Cell) []Cell {
		arms := []Cell{c}
		for _, mtbf := range []float64{14400, 7200, 3600} {
			c.SiteMTBF = mtbf
			arms = append(arms, c)
		}
		return arms
	}
	// The adaptive pair against the paper's strongest static pairs on a
	// contended grid, where stale scheduling information is what the
	// telemetry loop compensates for.
	feedback := func(mtbf float64) []Cell {
		var arms []Cell
		for _, p := range [][2]string{
			{"JobDataPresent", "DataLeastLoaded"},
			{"JobFeedback", "DataFeedback"},
			{"JobDataPresent", "DataRandom"},
			{"JobLeastLoaded", "DataLeastLoaded"},
		} {
			arms = append(arms, at(Cell{ES: p[0], DS: p[1], BandwidthMBps: 10, SiteMTBF: mtbf}, "staleness", 120))
		}
		return arms
	}
	return []Ablation{
		{"dataset-scheduler", ds},
		{"local-scheduler", []Cell{def, is(def, "ls", "SJF"), is(def, "ls", "LIFO")}},
		{"sharing", []Cell{heavy, is(heavy, "sharing", "MaxMinFair")}},
		{"adaptive@10MB/s", adaptive(10)},
		{"adaptive@100MB/s", adaptive(100)},
		{"multi-input", []Cell{at(def, "inputs", 1), at(def, "inputs", 2), at(def, "inputs", 4)}},
		{"staleness", []Cell{remote, at(remote, "staleness", 0), at(remote, "staleness", 300)}},
		{"es-mapping", []Cell{def, is(def, "mapping", "central"), is(def, "mapping", "per-user")}},
		{"batch", []Cell{def, is(def, "batch", "BatchMinMin"), is(def, "batch", "BatchMaxMin"), is(def, "batch", "BatchSufferage")}},
		{"user-focus", []Cell{def, at(def, "user-focus", 0.5), at(def, "user-focus", 1)}},
		{"cpu-spread", []Cell{def, at(def, "cpu-spread", 0.25), at(def, "cpu-spread", 0.5)}},
		{"tiers", []Cell{def, is(def, "tiers", "four-level")}},
		{"regional-info", []Cell{def, is(def, "info", "regional-view")}},
		{"ds-deletion", []Cell{at(def, "ds-delete-after", 0), at(def, "ds-delete-after", 2), at(def, "ds-delete-after", 5)}},
		{"output", []Cell{remote, at(remote, "output", 0.1), at(remote, "output", 0.5)}},
		{"backbone", []Cell{heavy, at(heavy, "backbone", 100)}},
		{"submission", []Cell{def, is(def, "submission", "think-300s"), is(def, "submission", "open-1per600s")}},
		{"crashes", crashes(def)},
		{"crashes-random", crashes(Cell{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10})},
		{"feedback", feedback(0)},
		{"feedback-crashes", feedback(3600)},
	}
}

// AblationCells returns every arm of Ablations once, in first-seen order.
func AblationCells() []Cell {
	var cells []Cell
	seen := make(map[Cell]bool)
	for _, a := range Ablations() {
		for _, c := range a.Arms {
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
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
		cell, run int // run: the (cell, seed) pair's index in campaign order
		seed      uint64
	}
	type outcome struct {
		task
		res core.Results
		reg *registry.Registry // the run's own metrics, nil without Base.Metrics
		err error
	}
	// The runner's counters register before any fold, so they lead the
	// exposition.
	var runsOK, runsErr, cellsDone registry.Counter
	if c.Base.Metrics != nil {
		rt := c.Base.Metrics.Counter("campaign_runs_total",
			"Simulations finished by the campaign runner, by outcome.", "status")
		runsOK, runsErr = rt.With("ok"), rt.With("error")
		cellsDone = c.Base.Metrics.Counter("campaign_cells_total",
			"Campaign cells fully completed (all seeds in).").With()
	}

	tasks := make(chan task)
	outcomes := make(chan outcome)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker builds every simulation in the memory of its
			// previous one.
			var runner core.Runner
			for t := range tasks {
				cfg := c.Base
				err := c.Cells[t.cell].apply(&cfg)
				cfg.Seed = t.seed
				if c.Base.Metrics != nil {
					cfg.Metrics = registry.New()
				}
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
						res, err = runner.Run(cfg)
					})
				}
				c.Progress.RunDone(fmt.Sprintf("%v seed=%d", c.Cells[t.cell], t.seed))
				outcomes <- outcome{task: t, res: res, reg: cfg.Metrics, err: err}
			}
		}()
	}
	go func() {
		for i := range c.Cells {
			for j, seed := range c.Seeds {
				tasks <- task{cell: i, run: i*len(c.Seeds) + j, seed: seed}
			}
		}
		close(tasks)
		wg.Wait()
		close(outcomes)
	}()

	results := make([]CellResult, len(c.Cells))
	pending := make([]int, len(c.Cells))
	for i := range results {
		results[i].Cell = c.Cells[i]
		pending[i] = len(c.Seeds)
	}
	// Finished runs' registries wait here until every earlier run is in;
	// folded is the next run to fold.
	regs := make([]*registry.Registry, len(c.Cells)*len(c.Seeds))
	folded := 0
	// The collector (this loop) is the only goroutine touching results,
	// so every callback fired here runs serialized.
	for o := range outcomes {
		if o.reg != nil {
			regs[o.run] = o.reg
			for ; folded < len(regs) && regs[folded] != nil; folded++ {
				c.Base.Metrics.Fold(regs[folded])
				regs[folded] = nil
			}
		}
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

// ByCell indexes results for lookup in assertions and report code.
func ByCell(results []CellResult) map[Cell]*CellResult {
	m := make(map[Cell]*CellResult, len(results))
	for i := range results {
		m[results[i].Cell] = &results[i]
	}
	return m
}
