package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"chicsim/internal/faults"
	"chicsim/internal/obs"
	"chicsim/internal/rng"
)

// runWakes runs cfg and logs, for every DS wake that finds replicas lost
// to faults waiting, the time, the site and the lost files. With force set,
// every dormant DS is woken anyway: after each wake that went dormant, the
// wrapper books the next wake DSInterval from now, as the wake itself would
// if a DS never slept, at the same moment and so in the same sequence
// order. It also returns the run's probe rows as CSV.
func runWakes(t *testing.T, cfg Config, force bool) (Results, []string, string) {
	t.Helper()
	var rows strings.Builder
	cfg.ObsSink = obs.NewCSVSink(&rows)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var restores []string
	for i := range s.dsWakeFns {
		inner := s.dsWakeFns[i]
		s.dsWakeFns[i] = func() {
			if len(s.lostAt) > 0 && len(s.lostAt[i]) > 0 {
				restores = append(restores, fmt.Sprint(s.eng.Now(), i, s.lostAt[i]))
			}
			inner()
			if force && s.dsIdleAt[i] >= 0 {
				s.dsIdleAt[i] = -1
				s.eng.Schedule(s.cfg.DSInterval, s.dsWakeFns[i])
			}
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, restores, rows.String()
}

// compareDormantToForced checks a plain run against the forced-wake run of
// the same config. Dormancy only drops wakes that do nothing, so every
// Results field must match except the event count, the end time the
// trailing idle wakes set, and the link utilizations divided by that end
// time. The busy seconds behind each utilization must agree, and the plain
// run must fire no more events. Lost replicas must reach the same wakes:
// a replica a dormant DS loses has no count in its empty window, so no
// Results field would show a restore that never ran.
func compareDormantToForced(t *testing.T, name string, cfg Config) {
	t.Helper()
	plain, plainRestores, plainRows := runWakes(t, cfg, false)
	forced, forcedRestores, forcedRows := runWakes(t, cfg, true)
	if !reflect.DeepEqual(plainRestores, forcedRestores) {
		t.Errorf("%s: lost replicas reach different wakes\n  dormant %q\n  forced  %q", name, plainRestores, forcedRestores)
	}
	if plain.SimEvents > forced.SimEvents {
		t.Errorf("%s: %d events with dormancy, %d without", name, plain.SimEvents, forced.SimEvents)
	}
	for _, u := range []struct {
		field string
		p, f  float64
	}{
		{"MeanLinkUtil", plain.MeanLinkUtil, forced.MeanLinkUtil},
		{"MaxLinkUtil", plain.MaxLinkUtil, forced.MaxLinkUtil},
		{"AccessLinkUtil", plain.AccessLinkUtil, forced.AccessLinkUtil},
		{"BackboneLinkUtil", plain.BackboneLinkUtil, forced.BackboneLinkUtil},
	} {
		pb, fb := u.p*plain.SimEndTime, u.f*forced.SimEndTime
		if math.Abs(pb-fb) > 1e-12*math.Max(math.Abs(pb), math.Abs(fb)) {
			t.Errorf("%s: %s busy seconds %v with dormancy, %v without", name, u.field, pb, fb)
		}
	}
	if plainRows != forcedRows {
		t.Errorf("%s: probe rows differ", name)
	}
	for _, r := range []*Results{&plain, &forced} {
		r.SimEvents, r.SimEndTime = 0, 0
		r.MeanLinkUtil, r.MaxLinkUtil, r.AccessLinkUtil, r.BackboneLinkUtil = 0, 0, 0, 0
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(forced)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("%s: results differ with dormancy\n  dormant %s\n  forced  %s", name, a, b)
	}
}

// TestDormantDSMatchesForcedWakes is the reference check for dormant DS
// wakes: on every golden case and on random small configs, a run whose DS
// sleeps through idle intervals must match the run that wakes it every
// DSInterval. The configs switch faults, regional information, the
// observation tick, the deletion role and batch scheduling on and off, and
// use every ES and DS. The 60 s batch windows, observation and feedback
// ticks and GIS refreshes land on the DS grid points of the default 300 s
// interval, so a re-armed wake must also keep its same-instant order.
func TestDormantDSMatchesForcedWakes(t *testing.T) {
	if testing.Short() {
		t.Skip("paired full simulations skipped in -short mode")
	}
	names, cfgs := kernelGoldenCases()
	for _, name := range names {
		compareDormantToForced(t, name, cfgs[name])
	}
	esNames, dsNames := ExternalNames(), DatasetNames()
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Sites = src.IntRange(2, 12)
		cfg.RegionFanout = src.IntRange(1, 4)
		cfg.Users = src.IntRange(2, 24)
		cfg.Files = src.IntRange(5, 40)
		cfg.TotalJobs = src.IntRange(50, 250)
		cfg.ES = esNames[src.Intn(len(esNames))]
		cfg.DS = dsNames[src.Intn(len(dsNames))]
		cfg.DSThreshold = src.IntRange(1, 4)
		if src.Intn(2) == 0 {
			cfg.DSInterval = src.Range(50, 600)
		}
		cfg.RegionalInfo = src.Intn(2) == 0
		cfg.ObsInterval = 60 * float64(src.Intn(2))
		cfg.DSDeleteAfter = src.Intn(2)
		if src.Intn(3) == 0 {
			cfg.BatchES = BatchNames()[src.Intn(3)]
			cfg.BatchWindow = 60
		}
		cfg.InfoStaleness = 60 * float64(src.Intn(3))
		if src.Intn(2) == 0 {
			cfg.Faults.SiteCrash = faults.Spec{MTBF: 3000, MTTR: 400}
			cfg.Faults.TransferAbort = faults.Spec{MTBF: 2000}
			cfg.Faults.ReplicaLoss = faults.Spec{MTBF: 1500}
			cfg.Faults.RequeueOnRecovery = true
			cfg.Faults.RestoreReplicas = true
		}
		compareDormantToForced(t, fmt.Sprintf("seed %d (%s+%s, batch %q, %d sites, regional %v, obs %v, delete %d, faults %v)",
			seed, cfg.ES, cfg.DS, cfg.BatchES, cfg.Sites, cfg.RegionalInfo, cfg.ObsInterval, cfg.DSDeleteAfter, cfg.Faults.Enabled()), cfg)
	}
}
