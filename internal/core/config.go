// Package core assembles the full Data Grid simulation: topology, network,
// sites, schedulers, workload, and metrics. It is the public entry point of
// the library — construct a Config (DefaultConfig reproduces the paper's
// Table 1), call Run, and read the Results.
package core

import (
	"encoding/json"
	"fmt"
	"io"

	"chicsim/internal/faults"
	"chicsim/internal/netsim"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/scheduler/feedback"
	"chicsim/internal/trace"
	"chicsim/internal/workload"
)

// ESMapping selects how users map to External Schedulers (§3: "Different
// mappings between users and External Schedulers lead to different
// scenarios").
type ESMapping int

const (
	// ESPerSite is the paper's default: "For our experiments we assume
	// one ES per site."
	ESPerSite ESMapping = iota
	// ESCentral models a single central scheduler all users submit to;
	// "local" execution then means the central host site (site 0).
	ESCentral
	// ESPerUser gives every user their own scheduler (each with its own
	// decision stream).
	ESPerUser
)

func (m ESMapping) String() string {
	switch m {
	case ESPerSite:
		return "per-site"
	case ESCentral:
		return "central"
	case ESPerUser:
		return "per-user"
	default:
		return fmt.Sprintf("ESMapping(%d)", int(m))
	}
}

// Result collection modes (Config.ResultMode).
const (
	// ResultModeFull keeps one response time, 8 bytes, per completed job
	// (the default; an empty ResultMode means the same thing).
	ResultModeFull = "full"
	// ResultModeBounded collects results into constant-memory streaming
	// aggregators; memory is independent of TotalJobs.
	ResultModeBounded = "bounded"
)

// Degradation is one injected network failure window.
type Degradation struct {
	At         float64 // virtual time the failure starts (s)
	Duration   float64 // how long it lasts (s)
	Multiplier float64 // bandwidth factor during the window (0 = outage)
	// BackboneOnly restricts the failure to root↔region links; otherwise
	// every link degrades.
	BackboneOnly bool
}

// Config parameterizes one simulation. The zero value is not runnable; use
// DefaultConfig as the base.
type Config struct {
	Seed uint64

	// Grid shape (Table 1).
	Sites        int // paper: 30
	Users        int // paper: 120
	Files        int // paper: 200
	TotalJobs    int // paper: 6000
	MinCEs       int // compute elements per site, low end (paper: 2)
	MaxCEs       int // compute elements per site, high end (paper: 5)
	RegionFanout int // leaf sites per regional center in the hierarchy

	// Tiers, when non-empty, replaces the default three-level hierarchy
	// with a general GriPhyN-style tree: Tiers[i] children per node at
	// depth i, sites at the leaves. Sites must equal the product of the
	// fanouts. TierBandwidthsMBps optionally provisions each tier's
	// downlinks (defaults to BandwidthMBps everywhere).
	Tiers              []int
	TierBandwidthsMBps []float64

	// CPUSpreadFrac breaks the paper's "all processors have the same
	// performance" assumption (extension): each site's processors run at
	// a speed factor drawn uniformly from [1−spread, 1+spread]. 0 keeps
	// the paper's homogeneous grid.
	CPUSpreadFrac float64

	// Network.
	BandwidthMBps float64 // paper: 10 (scenario 1) or 100 (scenario 2)
	// BackboneMBps, when > 0, provisions the root↔region backbone links
	// at a different rate than the access links (extension; the paper
	// uses one "connectivity bandwidth" everywhere).
	BackboneMBps float64
	Sharing      netsim.SharingPolicy
	// LatencyMsPerHop charges a fixed setup delay per link crossed before
	// a transfer moves bytes (extension; the paper's transfer cost is
	// purely size/bandwidth).
	LatencyMsPerHop float64
	// Degradations injects network failures: at each entry's start time
	// the selected links drop to Multiplier × nominal bandwidth, and
	// recover after Duration (extension; used for robustness studies).
	Degradations []Degradation

	// Storage (not specified in Table 1; see DESIGN.md assumptions).
	StorageGB float64 // per-site capacity; <= 0 = unlimited

	// Workload (§5.1).
	MinFileGB    float64 // paper: 0.5
	MaxFileGB    float64 // paper: 2
	ComputePerGB float64 // paper: 300 s/GB
	Popularity   workload.Popularity
	GeomP        float64
	ZipfAlpha    float64
	InputsPerJob int
	// UserFocus blends community popularity with per-user working sets
	// (extension; see workload.Spec.UserFocus).
	UserFocus float64

	// OutputFraction models job output as this fraction of the job's
	// total input bytes (extension; the paper's §3 model includes output
	// files but §5.1 ignores their cost as negligible — set this > 0 to
	// un-ignore it). Output is shipped back to the submitting user's
	// site when the job ran elsewhere; the shipment is asynchronous and
	// does not extend the job's response time, but it does contend for
	// bandwidth and is accounted in the traffic metrics.
	OutputFraction float64

	// Scheduling algorithms by name (see NewExternal/NewLocal/NewDataset).
	ES string
	LS string
	DS string

	// Feedback parameterizes the adaptive scheduler pair (extension; see
	// internal/scheduler/feedback and DESIGN.md §14). Consulted only when
	// ES is "JobFeedback" or DS is "DataFeedback": a telemetry tracker is
	// then attached, sampling live queue, link, GIS-age, and fault state
	// every Feedback.Interval seconds. All-zero weights reduce the pair
	// exactly to JobDataPresent/DataLeastLoaded.
	Feedback feedback.Params `json:"feedback,omitzero"`

	// BatchES, when non-empty, replaces the online External Scheduler
	// with a centralized batch heuristic (BatchMinMin, BatchMaxMin,
	// BatchSufferage — the §2 related-work comparators): submissions
	// buffer at a central scheduler and are assigned together every
	// BatchWindow seconds.
	BatchES     string
	BatchWindow float64

	// Dataset Scheduler cadence: each site's DS wakes every DSInterval
	// seconds and replicates files whose access count since the last wake
	// reached DSThreshold.
	DSInterval  float64
	DSThreshold int
	// DSDeleteAfter, when > 0, enables the DS's deletion role (§3: the
	// DS "determines if and when to replicate data and/or delete local
	// files"): a cached replica that records zero accesses for this many
	// consecutive DS windows is deleted, freeing space ahead of LRU
	// pressure. 0 (the default) leaves deletion purely to LRU, as the
	// paper's evaluation does.
	DSDeleteAfter int

	Mapping       ESMapping
	InfoStaleness float64 // GIS snapshot age; 0 = oracle
	// RegionalInfo, when true, restricts each scheduler's replica view to
	// its own region plus global master locations — the decentralized
	// "its view of the Grid" model instead of a grid-wide replica index
	// (extension).
	RegionalInfo bool

	// ThinkTimeMean, when > 0, inserts an exponentially distributed pause
	// between a user's job completion and their next submission
	// (extension; the paper submits the next job immediately).
	ThinkTimeMean float64
	// ArrivalRate, when > 0, switches each user from the paper's closed
	// strict-sequence model to an open model: submissions arrive as a
	// Poisson process at this per-user rate (jobs/second) regardless of
	// completions (extension).
	ArrivalRate float64

	// MaxTime aborts a run at this virtual time (0 = no limit). Aborted
	// runs return Results with Completed == false.
	MaxTime float64

	// Trace, when non-nil, replaces synthetic workload generation. Its
	// spec must agree with Sites/Users. Not serialized: traces have their
	// own file format (workload.WriteTrace).
	Trace *workload.Workload `json:"-"`

	// Recorder, when non-nil, receives every DGE event (job lifecycle,
	// transfers, replications, evictions) for offline analysis with the
	// trace package. Recording a full Table 1 run emits ~30k events.
	Recorder trace.Recorder `json:"-"`

	// Faults configures deterministic fault injection (extension; see
	// internal/faults and DESIGN.md §10): per-class MTBF/MTTR for site
	// crashes, CE failures, link degradation/outage, transfer aborts, and
	// replica loss, plus the retry/requeue/re-replication recovery knobs.
	// The zero value disables injection entirely and leaves the simulation
	// byte-identical to a build without the subsystem.
	Faults faults.Config `json:"faults,omitzero"`

	// ResultMode selects how the run's results are collected.
	// ResultModeFull (or empty, the default) keeps one response time per
	// completed job — exact distribution statistics, 8 bytes a job.
	// ResultModeBounded swaps that buffer for constant-memory streaming
	// aggregators (internal/metrics/stream): every exact aggregate field
	// of Results (counts, sums, means, min/max, makespan, transfer and
	// fault counters, SiteJobGini) is byte-identical to full mode, while
	// median/P95/histogram come from a 1%-relative-error sketch, a seeded
	// deterministic reservoir samples exemplar rows, and exact per-site
	// and per-file counts rank the hottest sites and datasets. Use
	// bounded for million-job runs where the response buffer would
	// dominate memory.
	ResultMode string `json:",omitempty"`

	// ObsInterval, when > 0, books the run's one recurring observation
	// event every so many virtual seconds. Each tick reads the probes —
	// per-site gauges (queue length, CPU utilization, storage fill,
	// replica count) and grid-wide gauges/counters (queued jobs, in-flight
	// transfers, GIS staleness, dispatches, replications, evictions,
	// deletions, jobs done) — into one row for ObsSink, then publishes to
	// Metrics and runs the Watchdog when those are set. The tick is an
	// ordinary engine event, so the rows are deterministic for a given
	// seed; at 0 (the default) no probes exist and the hot path is
	// untouched.
	ObsInterval float64

	// ObsSink, when non-nil (and ObsInterval > 0), is the only output of
	// the probe rows: Begin once with the columns, then Point on every
	// tick, as the run goes. obs.NewCSVSink and obs.NewJSONLSink write
	// them to a file; an *obs.Series keeps them in memory for
	// report.Heatmap and report.Timeline. The first sink error stops
	// further calls and Run returns it; the Results are unaffected.
	ObsSink obs.Sink `json:"-"`

	// Metrics, when non-nil, attaches the live metrics registry
	// (internal/obs/registry): the ObsInterval tick adds to the job,
	// dispatch and replication counters what core's own tallies gained
	// since the previous tick and sets the gauges; per-site response
	// histograms and fault counters update inline at their hooks. An HTTP
	// monitor can scrape the registry while the run is going. Requires
	// ObsInterval > 0. Attaching adds no event and never perturbs Results.
	Metrics *registry.Registry `json:"-"`

	// Watchdog, when not Off, runs online invariant checks
	// (internal/obs/watchdog) on every ObsInterval tick, after the probes
	// and Metrics: job conservation, replica vs. storage accounting,
	// link capacity, virtual-time monotonicity. Warn logs violations into
	// Results.WatchdogViolations; Fail stops the run at the first
	// violating tick and Run returns the violation as its error. Requires
	// ObsInterval > 0; adds no event of its own.
	Watchdog watchdog.Mode `json:"watchdog,omitempty"`

	// OnViolation, when non-nil (and Watchdog enabled), observes every
	// watchdog violation as it is found — the monitor streams these as
	// SSE events. Called from the simulation goroutine.
	OnViolation func(watchdog.Violation) `json:"-"`
}

// DefaultConfig returns the paper's Table 1 scenario 1 with the documented
// defaults for unstated parameters.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Sites:        30,
		Users:        120,
		Files:        200,
		TotalJobs:    6000,
		MinCEs:       2,
		MaxCEs:       5,
		RegionFanout: 6,

		BandwidthMBps: 10,
		Sharing:       netsim.EqualShare,

		StorageGB: 25,

		MinFileGB:    0.5,
		MaxFileGB:    2.0,
		ComputePerGB: 300,
		Popularity:   workload.Geometric,
		GeomP:        0.1,
		InputsPerJob: 1,

		ES: "JobDataPresent",
		LS: "FIFO",
		DS: "DataLeastLoaded",

		DSInterval:  300,
		DSThreshold: 3,

		Feedback: feedback.DefaultParams(),

		Mapping:       ESPerSite,
		InfoStaleness: 30,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Sites <= 0:
		return fmt.Errorf("core: Sites = %d", c.Sites)
	case c.Users <= 0:
		return fmt.Errorf("core: Users = %d", c.Users)
	case c.Files <= 0:
		return fmt.Errorf("core: Files = %d", c.Files)
	case c.TotalJobs <= 0:
		return fmt.Errorf("core: TotalJobs = %d", c.TotalJobs)
	case c.MinCEs <= 0 || c.MaxCEs < c.MinCEs:
		return fmt.Errorf("core: CE range [%d, %d]", c.MinCEs, c.MaxCEs)
	case c.RegionFanout <= 0:
		return fmt.Errorf("core: RegionFanout = %d", c.RegionFanout)
	case c.BandwidthMBps <= 0:
		return fmt.Errorf("core: BandwidthMBps = %v", c.BandwidthMBps)
	case c.DSInterval <= 0:
		return fmt.Errorf("core: DSInterval = %v", c.DSInterval)
	case c.DSThreshold <= 0:
		return fmt.Errorf("core: DSThreshold = %d", c.DSThreshold)
	case c.BatchES != "" && c.BatchWindow <= 0:
		return fmt.Errorf("core: BatchES %q requires BatchWindow > 0", c.BatchES)
	case c.OutputFraction < 0:
		return fmt.Errorf("core: OutputFraction = %v", c.OutputFraction)
	case c.ObsInterval < 0:
		return fmt.Errorf("core: ObsInterval = %v", c.ObsInterval)
	case c.ResultMode != "" && c.ResultMode != ResultModeFull && c.ResultMode != ResultModeBounded:
		return fmt.Errorf("core: ResultMode = %q (want %q or %q)", c.ResultMode, ResultModeFull, ResultModeBounded)
	case c.Metrics != nil && c.ObsInterval == 0:
		return fmt.Errorf("core: Metrics registry requires ObsInterval > 0 (gauges sync on the obs tick)")
	case c.Watchdog != watchdog.Off && c.ObsInterval == 0:
		return fmt.Errorf("core: Watchdog %v requires ObsInterval > 0 (checks run on the obs tick)", c.Watchdog)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Feedback.Validate(); err != nil {
		return err
	}
	for i, d := range c.Degradations {
		if d.At < 0 || d.Duration <= 0 || d.Multiplier < 0 {
			return fmt.Errorf("core: invalid degradation %d: %+v", i, d)
		}
	}
	if len(c.Tiers) > 0 {
		product := 1
		for i, f := range c.Tiers {
			if f <= 0 {
				return fmt.Errorf("core: Tiers[%d] = %d", i, f)
			}
			product *= f
		}
		if product != c.Sites {
			return fmt.Errorf("core: Tiers %v yields %d sites, config says %d", c.Tiers, product, c.Sites)
		}
	}
	if c.CPUSpreadFrac < 0 || c.CPUSpreadFrac >= 1 {
		return fmt.Errorf("core: CPUSpreadFrac = %v, must be in [0, 1)", c.CPUSpreadFrac)
	}
	if c.Trace != nil {
		if c.Trace.Spec.Sites != c.Sites || c.Trace.Spec.Users != c.Users {
			return fmt.Errorf("core: trace generated for %d sites/%d users, config has %d/%d",
				c.Trace.Spec.Sites, c.Trace.Spec.Users, c.Sites, c.Users)
		}
	}
	spec := c.WorkloadSpec()
	if err := spec.Validate(); err != nil {
		return err
	}
	return nil
}

// WriteJSON serializes the configuration (excluding the in-memory Trace
// and Recorder) for experiment provenance and replay.
func (c *Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("core: encoding config: %w", err)
	}
	return nil
}

// LoadConfig parses a configuration written by WriteJSON, layered over
// DefaultConfig (absent fields keep their defaults), and validates it.
func LoadConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	if err := json.NewDecoder(r).Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("core: decoding config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// WorkloadSpec derives the workload generator spec from the config.
func (c *Config) WorkloadSpec() workload.Spec {
	return workload.Spec{
		Users:        c.Users,
		Sites:        c.Sites,
		Files:        c.Files,
		TotalJobs:    c.TotalJobs,
		MinFileBytes: c.MinFileGB * 1e9,
		MaxFileBytes: c.MaxFileGB * 1e9,
		ComputePerGB: c.ComputePerGB,
		Popularity:   c.Popularity,
		GeomP:        c.GeomP,
		ZipfAlpha:    c.ZipfAlpha,
		InputsPerJob: c.InputsPerJob,
		UserFocus:    c.UserFocus,
	}
}
