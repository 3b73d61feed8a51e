package core

import (
	"fmt"
	"sort"

	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ds"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/scheduler/feedback"
	"chicsim/internal/scheduler/ls"
)

// NewExternal instantiates an External Scheduler by name. The source seeds
// the algorithm's tie-breaking/choice stream. avgComputeSec and avgCEs feed
// the JobBestCost estimator.
func NewExternal(name string, src *rng.Source, avgComputeSec, avgCEs float64) (scheduler.External, error) {
	return reuseExternal(nil, name, src, avgComputeSec, avgCEs)
}

// reuseExternal is NewExternal in the memory of prev, a policy an earlier
// run built: when prev has the named policy's type, every field
// NewExternal sets is set again and its per-placement scratch is kept.
// Scratch is refilled before each use, so the policy places exactly as a
// new one would.
func reuseExternal(prev scheduler.External, name string, src *rng.Source, avgComputeSec, avgCEs float64) (scheduler.External, error) {
	switch name {
	case "JobRandom":
		return es.Random{Src: src}, nil
	case "JobLeastLoaded":
		p := reuseAs[es.LeastLoaded](prev)
		p.Src = src
		return p, nil
	case "JobDataPresent":
		p := reuseAs[es.DataPresent](prev)
		p.Src = src
		return p, nil
	case "JobLocal":
		return es.Local{}, nil
	case "JobBestCost":
		p := reuseAs[es.BestCost](prev)
		p.Src, p.AvgComputeSec, p.CEsPerSite = src, avgComputeSec, avgCEs
		return p, nil
	case "JobAdaptive":
		p := reuseAs[es.Adaptive](prev)
		p.Src, p.PullFraction = src, 0.5
		return p, nil
	case "JobRegional":
		p := reuseAs[es.Regional](prev)
		p.Src = src
		return p, nil
	case "JobFeedback":
		// Constructed without a tracker: nil-safe telemetry reads make the
		// standalone policy behave exactly like JobDataPresent. The
		// simulation attaches its tracker and Config.Feedback after
		// construction (see wireFeedback in sim.go).
		p := reuseAs[feedback.ES](prev)
		p.Src, p.AvgComputeSec, p.CEsPerSite, p.Tracker, p.Params = src, avgComputeSec, avgCEs, nil, feedback.Params{}
		return p, nil
	default:
		return nil, fmt.Errorf("core: unknown external scheduler %q (have %v)", name, ExternalNames())
	}
}

// reuseAs returns prev when it is a *T, and a new zero T otherwise.
func reuseAs[T any](prev any) *T {
	if p, ok := prev.(*T); ok {
		return p
	}
	return new(T)
}

// NewBatch instantiates a batch External Scheduler by name.
func NewBatch(name string, avgComputeSec float64) (scheduler.Batch, error) {
	switch name {
	case "BatchMinMin":
		return es.BatchMinMin{AvgComputeSec: avgComputeSec}, nil
	case "BatchMaxMin":
		return es.BatchMaxMin{AvgComputeSec: avgComputeSec}, nil
	case "BatchSufferage":
		return es.BatchSufferage{AvgComputeSec: avgComputeSec}, nil
	default:
		return nil, fmt.Errorf("core: unknown batch scheduler %q (have %v)", name, BatchNames())
	}
}

// BatchNames lists the available batch heuristics.
func BatchNames() []string { return []string{"BatchMinMin", "BatchMaxMin", "BatchSufferage"} }

// NewLocal instantiates a Local Scheduler by name.
func NewLocal(name string) (scheduler.Local, error) {
	switch name {
	case "FIFO":
		return ls.FIFO{}, nil
	case "SJF":
		return ls.SJF{}, nil
	case "LIFO":
		return ls.LIFO{}, nil
	default:
		return nil, fmt.Errorf("core: unknown local scheduler %q (have %v)", name, LocalNames())
	}
}

// NewDataset instantiates a Dataset Scheduler by name.
func NewDataset(name string, src *rng.Source) (scheduler.Dataset, error) {
	return reuseDataset(nil, name, src)
}

// reuseDataset is NewDataset in the memory of prev, as reuseExternal is
// NewExternal's.
func reuseDataset(prev scheduler.Dataset, name string, src *rng.Source) (scheduler.Dataset, error) {
	switch name {
	case "DataDoNothing":
		return ds.DoNothing{}, nil
	case "DataRandom":
		return ds.Random{Src: src}, nil
	case "DataLeastLoaded":
		p := reuseAs[ds.LeastLoaded](prev)
		p.Src = src
		return p, nil
	case "DataCascade":
		p := reuseAs[ds.Cascade](prev)
		p.Src = src
		return p, nil
	case "DataBestClient":
		return ds.BestClient{Src: src}, nil
	case "DataFeedback":
		// Tracker and params attached by the simulation (see NewExternal's
		// JobFeedback case); standalone it matches DataLeastLoaded.
		p := reuseAs[feedback.DS](prev)
		p.Src, p.Tracker, p.Params = src, nil, feedback.Params{}
		return p, nil
	default:
		return nil, fmt.Errorf("core: unknown dataset scheduler %q (have %v)", name, DatasetNames())
	}
}

// ExternalNames lists the available ES algorithms. The first four are the
// paper's; the rest are extensions.
func ExternalNames() []string {
	return []string{"JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal", "JobBestCost", "JobAdaptive", "JobRegional", "JobFeedback"}
}

// PaperExternalNames lists the paper's four ES algorithms in figure order.
func PaperExternalNames() []string {
	return []string{"JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal"}
}

// LocalNames lists the available LS algorithms (FIFO is the paper's).
func LocalNames() []string { return []string{"FIFO", "SJF", "LIFO"} }

// DatasetNames lists the available DS algorithms. The first three are the
// paper's; the rest are extensions.
func DatasetNames() []string {
	return []string{"DataDoNothing", "DataRandom", "DataLeastLoaded", "DataCascade", "DataBestClient", "DataFeedback"}
}

// PaperDatasetNames lists the paper's three DS algorithms in figure order.
func PaperDatasetNames() []string {
	return []string{"DataDoNothing", "DataRandom", "DataLeastLoaded"}
}

// AllNames returns every registered algorithm name, sorted, for help text.
func AllNames() []string {
	var out []string
	out = append(out, ExternalNames()...)
	out = append(out, LocalNames()...)
	out = append(out, DatasetNames()...)
	sort.Strings(out)
	return out
}
