package faults

import (
	"fmt"
	"reflect"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
)

func TestConfigEnabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Error("zero config reports enabled")
	}
	c.MaxRetries = 5
	c.RequeueOnRecovery = true
	if c.Enabled() {
		t.Error("recovery knobs alone report enabled")
	}
	c.ReplicaLoss = Spec{MTBF: 100}
	if !c.Enabled() {
		t.Error("class with MTBF > 0 reports disabled")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"full", Config{SiteCrash: Spec{MTBF: 100, MTTR: 10}, TransferAbort: Spec{MTBF: 50}}, true},
		{"negative mtbf", Config{SiteCrash: Spec{MTBF: -1, MTTR: 10}}, false},
		{"negative mttr", Config{CEFailure: Spec{MTBF: 1, MTTR: -1}}, false},
		{"repairable class without mttr", Config{LinkOutage: Spec{MTBF: 100}}, false},
		{"abort without mttr", Config{TransferAbort: Spec{MTBF: 100}}, true},
		{"degrade factor one", Config{DegradeFactor: 1}, false},
		{"max retries -2", Config{MaxRetries: -2}, false},
		{"max retries -1", Config{MaxRetries: -1}, true},
		{"negative backoff", Config{RetryBackoff: -1}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestWithRepairDefaults checks that the repair defaults fill only a
// repairable class with an MTBF and no MTTR, and that Validate still
// rejects such a class until a caller asks for them.
func TestWithRepairDefaults(t *testing.T) {
	c := Config{
		SiteCrash:     Spec{MTBF: 100},
		CEFailure:     Spec{MTBF: 100},
		LinkDegrade:   Spec{MTBF: 100, MTTR: 7},
		TransferAbort: Spec{MTBF: 100},
	}
	if c.Validate() == nil {
		t.Fatal("Validate accepted a repairable class with no MTTR")
	}
	got := c.WithRepairDefaults()
	want := c
	want.SiteCrash.MTTR, want.CEFailure.MTTR = 600, 300
	if got != want {
		t.Fatalf("WithRepairDefaults = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{}).WithRepairDefaults() != (Config{}) {
		t.Fatal("WithRepairDefaults changed a config with no faults")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := Config{}.Normalized()
	if n.DegradeFactor != 0.1 || n.MaxRetries != 3 || n.RetryBackoff != 30 || n.RetryBackoffMax != 600 {
		t.Errorf("defaults = %+v", n)
	}
	// Explicit values survive; -1 retries is not "unset".
	c := Config{DegradeFactor: 0.5, MaxRetries: -1, RetryBackoff: 5, RetryBackoffMax: 40}
	n = c.Normalized()
	if n.DegradeFactor != 0.5 || n.MaxRetries != -1 || n.RetryBackoff != 5 || n.RetryBackoffMax != 40 {
		t.Errorf("explicit values clobbered: %+v", n)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxRetries: 5, Backoff: 10, BackoffMax: 60}
	want := []float64{10, 20, 40, 60, 60}
	for i, w := range want {
		if d := p.Delay(i + 1); d != w {
			t.Errorf("Delay(%d) = %g, want %g", i+1, d, w)
		}
	}
	if d := p.Delay(0); d != 10 {
		t.Errorf("Delay(0) = %g, want clamp to first attempt", d)
	}
}

func TestRetryPolicyExhausted(t *testing.T) {
	p := RetryPolicy{MaxRetries: 2}
	for failures, want := range map[int]bool{1: false, 2: false, 3: true} {
		if got := p.Exhausted(failures); got != want {
			t.Errorf("Exhausted(%d) = %v, want %v", failures, got, want)
		}
	}
	if !(RetryPolicy{MaxRetries: -1}).Exhausted(1) {
		t.Error("MaxRetries -1 should abandon on first failure")
	}
}

// scriptedActions records every call the injector makes, with virtual
// timestamps, and simulates simple up/down state so repairs and
// already-down skips behave as in the real grid.
type scriptedActions struct {
	eng      *desim.Engine
	log      []string
	siteDown []bool
	ceDown   []bool
	linkHit  []bool
}

func newScripted(eng *desim.Engine, sites, links int) *scriptedActions {
	return &scriptedActions{
		eng:      eng,
		siteDown: make([]bool, sites),
		ceDown:   make([]bool, sites),
		linkHit:  make([]bool, links),
	}
}

func (a *scriptedActions) note(format string, args ...any) {
	a.log = append(a.log, fmt.Sprintf("%.3f "+format, append([]any{a.eng.Now()}, args...)...))
}

func (a *scriptedActions) NumSites() int          { return len(a.siteDown) }
func (a *scriptedActions) NumLinks() int          { return len(a.linkHit) }
func (a *scriptedActions) SiteUp(i int) bool      { return !a.siteDown[i] }
func (a *scriptedActions) CrashSite(i int)        { a.siteDown[i] = true; a.note("crash %d", i) }
func (a *scriptedActions) RecoverSite(i int)      { a.siteDown[i] = false; a.note("recover %d", i) }
func (a *scriptedActions) RecoverCE(i int)        { a.ceDown[i] = false; a.note("ce-recover %d", i) }
func (a *scriptedActions) LinkNominal(l int) bool { return !a.linkHit[l] }
func (a *scriptedActions) RestoreLink(l int)      { a.linkHit[l] = false; a.note("link-repair %d", l) }

func (a *scriptedActions) FailCE(i int) bool {
	if a.siteDown[i] || a.ceDown[i] {
		return false
	}
	a.ceDown[i] = true
	a.note("ce-fail %d", i)
	return true
}

func (a *scriptedActions) DegradeLink(l int, factor float64) {
	a.linkHit[l] = true
	a.note("link-fault %d %.2f", l, factor)
}

func (a *scriptedActions) AbortTransfer(pick *rng.Source) bool {
	a.note("abort %d", pick.Intn(100))
	return true
}

func (a *scriptedActions) LoseReplica(pick *rng.Source) bool {
	a.note("lose %d", pick.Intn(100))
	return true
}

func fullConfig() Config {
	return Config{
		SiteCrash:     Spec{MTBF: 500, MTTR: 100},
		CEFailure:     Spec{MTBF: 300, MTTR: 80},
		LinkDegrade:   Spec{MTBF: 400, MTTR: 90},
		LinkOutage:    Spec{MTBF: 700, MTTR: 60},
		TransferAbort: Spec{MTBF: 250},
		ReplicaLoss:   Spec{MTBF: 350},
	}
}

// runScripted drives the injector against scripted actions until the
// given virtual time, returning the call log and stats.
func runScripted(seed uint64, until float64) ([]string, Stats) {
	eng := desim.New()
	acts := newScripted(eng, 6, 9)
	active := func() bool { return eng.Now() < until }
	in := Attach(eng, fullConfig(), rng.New(seed).Derive("faults"), acts, active)
	eng.Run()
	return acts.log, in.Stats()
}

// The injector's entire call sequence is reproducible from the seed.
func TestInjectorDeterministic(t *testing.T) {
	logA, statsA := runScripted(42, 5000)
	logB, statsB := runScripted(42, 5000)
	if !reflect.DeepEqual(logA, logB) {
		t.Errorf("logs differ:\n%v\n%v", logA, logB)
	}
	if statsA != statsB {
		t.Errorf("stats differ: %+v vs %+v", statsA, statsB)
	}
	if statsA.FaultsInjected == 0 {
		t.Fatal("nothing injected in 5000s with every class enabled")
	}
	logC, _ := runScripted(43, 5000)
	if reflect.DeepEqual(logA, logC) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// Every fault is eventually repaired: once active() goes false the
// processes stop re-arming, pending repairs still fire, and the engine
// drains with no element left broken.
func TestInjectorDrainsRepaired(t *testing.T) {
	eng := desim.New()
	acts := newScripted(eng, 6, 9)
	active := func() bool { return eng.Now() < 3000 }
	in := Attach(eng, fullConfig(), rng.New(7).Derive("faults"), acts, active)
	eng.Run() // must terminate: fault processes stop, repairs all fire

	st := in.Stats()
	repairable := st.SiteCrashes + st.CEFailures + st.LinkDegradations + st.LinkOutages
	if st.Repairs != repairable {
		t.Errorf("repairs %d != repairable faults %d", st.Repairs, repairable)
	}
	for i, down := range acts.siteDown {
		if down {
			t.Errorf("site %d still down after drain", i)
		}
	}
	for i, down := range acts.ceDown {
		if down {
			t.Errorf("CE at site %d still down after drain", i)
		}
	}
	for l, hit := range acts.linkHit {
		if hit {
			t.Errorf("link %d still degraded after drain", l)
		}
	}
}

// A draw that lands on an unavailable target is skipped without
// counting, and stats classes stay consistent with the call log.
func TestInjectorStatsMatchLog(t *testing.T) {
	log, st := runScripted(11, 8000)
	counts := map[string]int{}
	for _, line := range log {
		var ts float64
		var kind string
		fmt.Sscanf(line, "%f %s", &ts, &kind)
		counts[kind]++
	}
	if counts["crash"] != st.SiteCrashes {
		t.Errorf("crash calls %d, stats %d", counts["crash"], st.SiteCrashes)
	}
	if counts["ce-fail"] != st.CEFailures {
		t.Errorf("ce-fail calls %d, stats %d", counts["ce-fail"], st.CEFailures)
	}
	if counts["abort"] != st.TransfersAborted {
		t.Errorf("abort calls %d, stats %d", counts["abort"], st.TransfersAborted)
	}
	if counts["lose"] != st.ReplicasLost {
		t.Errorf("lose calls %d, stats %d", counts["lose"], st.ReplicasLost)
	}
	linkFaults := counts["link-fault"]
	if linkFaults != st.LinkDegradations+st.LinkOutages {
		t.Errorf("link faults %d, stats %d+%d", linkFaults, st.LinkDegradations, st.LinkOutages)
	}
	total := st.SiteCrashes + st.CEFailures + st.LinkDegradations + st.LinkOutages +
		st.TransfersAborted + st.ReplicasLost
	if st.FaultsInjected != total {
		t.Errorf("FaultsInjected %d != class sum %d", st.FaultsInjected, total)
	}
}
