package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chicsim/internal/obs/monitor"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
)

// TestMonitorMidCampaign is the control-plane smoke test CI runs under
// -race: a campaign shares one registry with an HTTP monitor on an
// ephemeral port, /metrics and /status are scraped *while* workers run
// simulations, the Prometheus text must parse on every scrape, and the
// final counters must agree with the campaign's own results.
func TestMonitorMidCampaign(t *testing.T) {
	reg := registry.New()
	var done atomic.Int64
	type statusDoc struct {
		RunsDone int64 `json:"runs_done"`
		Total    int   `json:"total"`
	}
	const cells, seeds = 2, 3
	srv, err := monitor.Start("127.0.0.1:0", reg, func() any {
		return statusDoc{RunsDone: done.Load(), Total: cells * seeds}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Scrapers race the campaign until it finishes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := registry.CheckText(strings.NewReader(string(body))); err != nil {
				t.Errorf("mid-campaign /metrics does not parse: %v\n%s", err, body)
				return
			}
			resp, err = http.Get("http://" + srv.Addr() + "/status")
			if err != nil {
				t.Errorf("status: %v", err)
				return
			}
			var st statusDoc
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Errorf("mid-campaign /status does not parse: %v", err)
				return
			}
			if st.Total != cells*seeds {
				t.Errorf("/status total = %d, want %d", st.Total, cells*seeds)
				return
			}
			scrapes++
		}
	}()

	camp := Campaign{
		Base: tinyBase(),
		Cells: []Cell{
			{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10},
			{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10},
		},
		Seeds:   []uint64{1, 2, 3},
		Workers: 2,
		OnRunDone: func(c Cell, seed uint64, err error) {
			done.Add(1)
			srv.Publish("run_done", map[string]any{"cell": c.String(), "seed": seed})
		},
	}
	camp.Base.ObsInterval, camp.Base.Metrics, camp.Base.Watchdog = 500, reg, watchdog.Fail
	results := Run(camp)
	close(stop)
	wg.Wait()

	totalJobs := 0
	for _, cr := range results {
		if cr.Err != nil {
			t.Fatalf("cell %v: %v", cr.Cell, cr.Err)
		}
		for _, r := range cr.Runs {
			totalJobs += r.JobsDone
		}
	}
	if done.Load() != cells*seeds {
		t.Fatalf("OnRunDone fired %d times, want %d", done.Load(), cells*seeds)
	}
	// Every run is folded into the campaign registry by the time Run returns.
	if v, ok := reg.Value("sim_jobs_total", "done"); !ok || int(v) != totalJobs {
		t.Errorf("sim_jobs_total{done} = %v, %v; want %d", v, ok, totalJobs)
	}
	if v, ok := reg.Value("campaign_runs_total", "ok"); !ok || int(v) != cells*seeds {
		t.Errorf("campaign_runs_total{ok} = %v, %v; want %d", v, ok, cells*seeds)
	}
	if v, ok := reg.Value("campaign_cells_total"); !ok || int(v) != cells {
		t.Errorf("campaign_cells_total = %v, %v; want %d", v, ok, cells)
	}
	t.Logf("scraped /metrics+/status %d times mid-campaign", scrapes)
}

// TestCampaignRegistryDeterministic: the campaign registry's Prometheus
// text, histogram sums included, must not depend on worker count; each
// run writes its own registry and the runner folds them in (cell, seed)
// order.
func TestCampaignRegistryDeterministic(t *testing.T) {
	gather := func(workers int) (text string, done, dispatches float64) {
		reg := registry.New()
		camp := Campaign{
			Base: tinyBase(),
			Cells: []Cell{
				{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10},
				{ES: "JobLeastLoaded", DS: "DataLeastLoaded", BandwidthMBps: 10},
				{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10},
			},
			Seeds:   []uint64{1, 2, 3},
			Workers: workers,
		}
		camp.Base.TotalJobs = 600
		camp.Base.ObsInterval, camp.Base.Metrics = 500, reg
		for _, cr := range Run(camp) {
			if cr.Err != nil {
				t.Fatalf("cell %v: %v", cr.Cell, cr.Err)
			}
		}
		var b strings.Builder
		if err := registry.WritePrometheus(&b, reg.Gather()); err != nil {
			t.Fatal(err)
		}
		done, _ = reg.Value("sim_jobs_total", "done")
		dispatches, _ = reg.Value("sim_dispatches_total")
		return b.String(), done, dispatches
	}
	text1, d1, disp1 := gather(1)
	if want := 3 * 3 * 600.0; d1 != want {
		t.Errorf("sim_jobs_total{done} = %v, want %v", d1, want)
	}
	for _, workers := range []int{2, 4} {
		text, d, disp := gather(workers)
		if d != d1 || disp != disp1 {
			t.Errorf("workers=%d: counters (%v, %v), want (%v, %v) as with one worker", workers, d, disp, d1, disp1)
		}
		if text != text1 {
			t.Errorf("workers=%d: campaign exposition differs from one worker's:\n%s", workers, firstDiff(text1, text))
		}
	}
}

// firstDiff returns the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(al), len(bl))
}
