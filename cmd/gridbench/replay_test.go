package main

import (
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/faults"
	"chicsim/internal/trace"
)

// recordRun runs cfg with a flow-keeping recorder.
func recordRun(t *testing.T, cfg core.Config) (*core.Simulation, *stamp, core.Results) {
	t.Helper()
	st := newStamp(true)
	cfg.Recorder = st
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sim, st, res
}

func smallMover() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	cfg.TotalJobs = 600
	cfg.ES, cfg.DS = "JobRandom", "DataLeastLoaded"
	return cfg
}

func TestReplayReproducesDeliveries(t *testing.T) {
	outputs := smallMover()
	outputs.StorageGB = 5
	outputs.OutputFraction = 0.1
	for name, cfg := range map[string]core.Config{"data-moving": smallMover(), "outputs": outputs} {
		sim, st, res := recordRun(t, cfg)
		rr, err := replayNetsim(cfg, sim, st.flows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rr.transfers == 0 || rr.transfers != st.transfers {
			t.Fatalf("%s: replayed %d transfers, recorder counted %d", name, rr.transfers, st.transfers)
		}
		if rr.maxDev > maxReplayDev {
			t.Errorf("%s: replay deviates by %g s", name, rr.maxDev)
		}
		if name == "outputs" && (res.Evictions == 0 || rr.transfers <= res.JobsDone) {
			t.Errorf("outputs run evicted %d files and moved %d transfers for %d jobs; the case exercises nothing",
				res.Evictions, rr.transfers, res.JobsDone)
		}
	}
}

// TestReplayDetectsDivergence shows the fidelity check has teeth: a
// transfer started late fails the replay, and so does a faulted run, whose
// cancellations the replay does not model.
func TestReplayDetectsDivergence(t *testing.T) {
	cfg := smallMover()
	sim, st, _ := recordRun(t, cfg)
	late := append([]trace.Event(nil), st.flows...)
	shifted := false
	for i, e := range late {
		if e.Kind == trace.FetchStart && i+1 < len(late) && late[i+1].T > e.T+10 {
			late[i].T += 10 // still before the next action, so the order holds
			shifted = true
			break
		}
	}
	if !shifted {
		t.Fatal("no fetch to delay")
	}
	if rr, err := replayNetsim(cfg, sim, late); err == nil && rr.maxDev <= maxReplayDev {
		t.Errorf("a fetch started 10 s late replayed within %g s", rr.maxDev)
	}

	faulted := smallMover()
	faulted.Faults = faults.Config{TransferAbort: faults.Spec{MTBF: 300}}
	sim, st, _ = recordRun(t, faulted)
	if _, err := replayNetsim(faulted, sim, st.flows); err == nil {
		t.Error("a faulted run replayed")
	}
}
