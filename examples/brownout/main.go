// Brownout: failure injection. The paper closes §5.3 warning that "we must
// be careful to evaluate the impact of future technological changes on our
// results" — this example evaluates the impact of *degraded* technology: a
// two-hour backbone brownout (5% capacity) in the middle of the workload.
//
// It compares how the coupled baseline and the decoupled winner absorb the
// failure, and renders the grid-occupancy timeline around it.
//
// Run with:
//
//	go run ./examples/brownout
package main

import (
	"fmt"
	"log"
	"os"

	"chicsim/internal/core"
	"chicsim/internal/obs"
	"chicsim/internal/report"
)

func main() {
	base := core.DefaultConfig()
	base.TotalJobs = 3000
	base.ObsInterval = 120
	brownout := core.Degradation{At: 3000, Duration: 7200, Multiplier: 0.05, BackboneOnly: true}

	type row struct {
		name     string
		healthy  core.Results
		hurt     core.Results
		timeline *obs.Series // the brownout run's probe series
	}
	var rows []row
	for _, pair := range [][2]string{
		{"JobLocal", "DataDoNothing"},
		{"JobDataPresent", "DataLeastLoaded"},
	} {
		cfg := base
		cfg.ES, cfg.DS = pair[0], pair[1]
		healthy, err := core.RunConfig(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Degradations = []core.Degradation{brownout}
		timeline := new(obs.Series)
		cfg.ObsSink = timeline
		hurt, err := core.RunConfig(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{pair[0] + "+" + pair[1], healthy, hurt, timeline})
	}

	fmt.Println("backbone brownout: t=3000 s, 7200 s at 5% capacity")
	fmt.Printf("%-36s %12s %12s %10s\n", "policy pair", "healthy (s)", "brownout (s)", "slowdown")
	for _, r := range rows {
		fmt.Printf("%-36s %12.1f %12.1f %9.2fx\n",
			r.name, r.healthy.AvgResponseSec, r.hurt.AvgResponseSec,
			r.hurt.AvgResponseSec/r.healthy.AvgResponseSec)
	}

	fmt.Println("\ndecoupled grid during the brownout (occupancy barely dips —")
	fmt.Println("jobs already run where their data lives):")
	report.Timeline(os.Stdout, rows[1].timeline, 100)
	fmt.Println("\ncoupled grid during the brownout (starves while transfers crawl):")
	report.Timeline(os.Stdout, rows[0].timeline, 100)
}
