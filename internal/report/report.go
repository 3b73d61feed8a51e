// Package report renders experiment results as the ASCII tables and CSV
// series corresponding to the paper's figures.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"chicsim/internal/experiments"
	"chicsim/internal/metrics"
	"chicsim/internal/obs"
	"chicsim/internal/stats"
)

// Metric selects which measurement a figure-style table shows.
type Metric int

const (
	// ResponseTime renders average response time per job in seconds
	// (Figures 3a and 5).
	ResponseTime Metric = iota
	// DataTransferred renders average data transferred per job in MB
	// (Figure 3b).
	DataTransferred
	// IdleTime renders average processor idle time in percent (Figure 4).
	IdleTime
)

func (m Metric) String() string {
	switch m {
	case ResponseTime:
		return "avg response time (s)"
	case DataTransferred:
		return "avg data transferred/job (MB)"
	case IdleTime:
		return "processor idle time (%)"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

func value(cr *experiments.CellResult, m Metric) float64 {
	switch m {
	case ResponseTime:
		return cr.AvgResponseSec
	case DataTransferred:
		return cr.AvgDataPerJobMB
	case IdleTime:
		return 100 * cr.AvgIdleFrac
	default:
		panic("report: unknown metric")
	}
}

// Grid writes a figure-3-style matrix: one row per ES algorithm, one
// column per DS algorithm, at a fixed bandwidth.
func Grid(w io.Writer, results []experiments.CellResult, m Metric, esNames, dsNames []string, bandwidth float64) {
	idx := experiments.ByCell(results)
	fmt.Fprintf(w, "%s at %g MB/s\n", m, bandwidth)
	fmt.Fprintf(w, "%-16s", "")
	for _, dsName := range dsNames {
		fmt.Fprintf(w, "%18s", dsName)
	}
	fmt.Fprintln(w)
	for _, esName := range esNames {
		fmt.Fprintf(w, "%-16s", esName)
		for _, dsName := range dsNames {
			cr, ok := idx[experiments.Cell{ES: esName, DS: dsName, BandwidthMBps: bandwidth}]
			if !ok || cr.Err != nil || len(cr.Runs) == 0 {
				fmt.Fprintf(w, "%18s", "-")
				continue
			}
			fmt.Fprintf(w, "%18.1f", value(cr, m))
		}
		fmt.Fprintln(w)
	}
}

// Bandwidths writes a figure-5-style table: one row per ES algorithm, one
// column per bandwidth, at a fixed DS algorithm, showing response time.
func Bandwidths(w io.Writer, results []experiments.CellResult, esNames []string, dsName string, bws []float64) {
	idx := experiments.ByCell(results)
	fmt.Fprintf(w, "avg response time (s), DS=%s\n", dsName)
	fmt.Fprintf(w, "%-16s", "")
	for _, bw := range bws {
		fmt.Fprintf(w, "%14.0fMB/s", bw)
	}
	fmt.Fprintln(w)
	for _, esName := range esNames {
		fmt.Fprintf(w, "%-16s", esName)
		for _, bw := range bws {
			cr, ok := idx[experiments.Cell{ES: esName, DS: dsName, BandwidthMBps: bw}]
			if !ok || cr.Err != nil || len(cr.Runs) == 0 {
				fmt.Fprintf(w, "%18s", "-")
				continue
			}
			fmt.Fprintf(w, "%18.1f", cr.AvgResponseSec)
		}
		fmt.Fprintln(w)
	}
}

// MarkdownGrid writes a figure matrix as a GitHub-flavored markdown table
// (one row per ES algorithm, one column per DS algorithm) — the format
// used by EXPERIMENTS.md.
func MarkdownGrid(w io.Writer, results []experiments.CellResult, m Metric, esNames, dsNames []string, bandwidth float64) {
	idx := experiments.ByCell(results)
	fmt.Fprintf(w, "| %s |", m)
	for _, dsName := range dsNames {
		fmt.Fprintf(w, " %s |", dsName)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range dsNames {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, esName := range esNames {
		fmt.Fprintf(w, "| %s |", esName)
		for _, dsName := range dsNames {
			cr, ok := idx[experiments.Cell{ES: esName, DS: dsName, BandwidthMBps: bandwidth}]
			if !ok || cr.Err != nil || len(cr.Runs) == 0 {
				fmt.Fprint(w, " – |")
				continue
			}
			fmt.Fprintf(w, " %.1f |", value(cr, m))
		}
		fmt.Fprintln(w)
	}
}

// CSV writes every cell as one comma-separated row, suitable for plotting.
func CSV(w io.Writer, results []experiments.CellResult) {
	fmt.Fprintln(w, "es,ds,bandwidth_mbps,site_mtbf_s,seeds,avg_response_s,std_response_s,avg_data_mb_per_job,idle_pct,dispatch_wait_s,data_wait_s,cpu_wait_s,exec_s")
	for i := range results {
		cr := &results[i]
		if cr.Err != nil {
			fmt.Fprintf(w, "%s,%s,%g,%g,0,error,%q,,,,,,\n", cr.Cell.ES, cr.Cell.DS, cr.Cell.BandwidthMBps, cr.Cell.SiteMTBF, cr.Err.Error())
			continue
		}
		fmt.Fprintf(w, "%s,%s,%g,%g,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			cr.Cell.ES, cr.Cell.DS, cr.Cell.BandwidthMBps, cr.Cell.SiteMTBF, len(cr.Runs),
			cr.AvgResponseSec, cr.StdResponseSec, cr.AvgDataPerJobMB, 100*cr.AvgIdleFrac,
			cr.AvgDispatchWaitSec, cr.AvgDataWaitSec, cr.AvgCPUWaitSec, cr.AvgExecSec)
	}
}

// DecompositionMarkdown writes the response-time decomposition of the
// four ES algorithms at a fixed DS and bandwidth as a markdown table:
// one row per ES, columns for the dispatch/data/cpu/exec phase means and
// their total (= the cell's average response time). It renders the §5
// causal story directly: JobDataPresent with replication collapses the
// data column, JobLocal trades it for cpu wait at the hotspots.
func DecompositionMarkdown(w io.Writer, results []experiments.CellResult, esNames []string, dsName string, bandwidth float64) {
	idx := experiments.ByCell(results)
	fmt.Fprintf(w, "| response decomposition (s), DS=%s @ %g MB/s | dispatch | data | cpu | exec | total |\n", dsName, bandwidth)
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, esName := range esNames {
		cr, ok := idx[experiments.Cell{ES: esName, DS: dsName, BandwidthMBps: bandwidth}]
		if !ok || cr.Err != nil || len(cr.Runs) == 0 {
			fmt.Fprintf(w, "| %s | – | – | – | – | – |\n", esName)
			continue
		}
		total := cr.AvgDispatchWaitSec + cr.AvgDataWaitSec + cr.AvgCPUWaitSec + cr.AvgExecSec
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.1f | %.1f | %.1f |\n",
			esName, cr.AvgDispatchWaitSec, cr.AvgDataWaitSec, cr.AvgCPUWaitSec, cr.AvgExecSec, total)
	}
}

// heatChars maps busy fraction to display density.
const heatChars = " .:-=+*#%@"

// occupancy returns the value index of each site's sNN.cpu_util column
// in a probe series, in site order, or nil when the series holds no
// samples to draw.
func occupancy(s *obs.Series) []int {
	if s == nil || len(s.Points) == 0 {
		return nil
	}
	idx := make(map[string]int, len(s.Names))
	for i, n := range s.Names {
		idx[n] = i
	}
	var cols []int
	for site := 0; ; site++ {
		i, ok := idx[fmt.Sprintf("s%02d.cpu_util", site)]
		if !ok {
			return cols
		}
		cols = append(cols, i)
	}
}

// Heatmap renders per-site processor occupancy over time from a probe
// series' sNN.cpu_util columns: one row per site, one character column
// per (downsampled) sample, darker = busier. It visualizes the paper's
// hotspot story at a glance — JobDataPresent without replication shows a
// few dark rows on a pale field.
func Heatmap(w io.Writer, s *obs.Series, maxWidth int) {
	siteCols := occupancy(s)
	if siteCols == nil {
		fmt.Fprintln(w, "(no samples; set Config.ObsInterval)")
		return
	}
	if maxWidth <= 0 {
		maxWidth = 80
	}
	pts := s.Points
	cols := len(pts)
	stride := 1
	if cols > maxWidth {
		stride = (cols + maxWidth - 1) / maxWidth
	}
	fmt.Fprintf(w, "site occupancy, %d sites × %d samples (t=%.0f..%.0f s), '%c'=idle '%c'=full\n",
		len(siteCols), cols, pts[0].T, pts[cols-1].T, heatChars[0], heatChars[len(heatChars)-1])
	for site, vi := range siteCols {
		fmt.Fprintf(w, "s%-3d |", site)
		for c := 0; c < cols; c += stride {
			// Average the bucket.
			sum, n := 0.0, 0
			for k := c; k < c+stride && k < cols; k++ {
				sum += pts[k].Values[vi]
				n++
			}
			frac := sum / float64(n)
			idx := int(frac * float64(len(heatChars)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatChars) {
				idx = len(heatChars) - 1
			}
			fmt.Fprintf(w, "%c", heatChars[idx])
		}
		fmt.Fprintln(w, "|")
	}
}

// Timeline renders grid-wide aggregates of a probe series: mean occupancy
// per sample, then the peaks of its jobs_queued and inflight_transfers
// columns.
func Timeline(w io.Writer, s *obs.Series, maxWidth int) {
	siteCols := occupancy(s)
	if siteCols == nil {
		fmt.Fprintln(w, "(no samples; set Config.ObsInterval)")
		return
	}
	if maxWidth <= 0 {
		maxWidth = 80
	}
	pts := s.Points
	stride := 1
	if len(pts) > maxWidth {
		stride = (len(pts) + maxWidth - 1) / maxWidth
	}
	fmt.Fprintln(w, "grid occupancy over time (each char = mean busy fraction):")
	fmt.Fprint(w, "     |")
	for c := 0; c < len(pts); c += stride {
		sum, n := 0.0, 0
		for k := c; k < c+stride && k < len(pts); k++ {
			for _, vi := range siteCols {
				sum += pts[k].Values[vi]
				n++
			}
		}
		frac := sum / float64(n)
		idx := int(frac * float64(len(heatChars)-1))
		if idx >= len(heatChars) {
			idx = len(heatChars) - 1
		}
		fmt.Fprintf(w, "%c", heatChars[idx])
	}
	fmt.Fprintln(w, "|")
	peakQ, peakF := 0.0, 0.0
	for _, q := range s.Column("jobs_queued") {
		peakQ = max(peakQ, q)
	}
	for _, f := range s.Column("inflight_transfers") {
		peakF = max(peakF, f)
	}
	fmt.Fprintf(w, "peak queued jobs: %.0f, peak concurrent transfers: %.0f\n", peakQ, peakF)
}

// Significance prints the Welch t-test verdict on the response times of
// two cells — the statistical form of the paper's "we found no significant
// performance differences between the two replication algorithms" (§5.3).
func Significance(w io.Writer, results []experiments.CellResult, a, b experiments.Cell) {
	idx := experiments.ByCell(results)
	ca, cb := idx[a], idx[b]
	if ca == nil || cb == nil {
		fmt.Fprintf(w, "significance %v vs %v: cells not present\n", a, b)
		return
	}
	r, err := experiments.CompareResponse(ca, cb)
	if err != nil {
		fmt.Fprintf(w, "significance %v vs %v: %v\n", a, b, err)
		return
	}
	verdict := "NO significant difference (p > 0.05)"
	if r.SignificantAt05 {
		verdict = "SIGNIFICANT difference (p < 0.05)"
	}
	fmt.Fprintf(w, "%s (%.1f s) vs %s (%.1f s): t=%.2f df=%.1f → %s\n",
		a, ca.AvgResponseSec, b, cb.AvgResponseSec, r.T, r.DF, verdict)
}

// Ablations writes each design-choice study of experiments.Ablations as
// seed-paired deltas: every arm's mean response over seeds, then its
// difference from the study's control (Arms[0]) by
// experiments.PairedResponseDelta, as mean ± 95% CI half-width and as a
// share of the control's mean. An interval that spans zero reads "no
// detectable effect". A failed or missing cell, or an arm with fewer
// than two seeds paired with the control, prints "-". An arm whose runs
// abandoned jobs after exhausting their retries ends with the total.
func Ablations(w io.Writer, results []experiments.CellResult, ablations []experiments.Ablation) {
	idx := experiments.ByCell(results)
	ran := func(c experiments.Cell) *experiments.CellResult {
		if cr := idx[c]; cr != nil && cr.Err == nil && len(cr.Runs) > 0 {
			return cr
		}
		return nil
	}
	for i, a := range ablations {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s, control %v\n", a.Name, a.Arms[0])
		fmt.Fprintf(w, "  %-38s %9s  %-18s %8s\n", "arm", "resp (s)", "Δ resp (s), 95% CI", "Δ")
		control := ran(a.Arms[0])
		for j, arm := range a.Arms {
			label := armLabel(arm, a.Arms)
			cr := ran(arm)
			if cr == nil {
				fmt.Fprintf(w, "  %-38s %9s\n", label, "-")
				continue
			}
			fmt.Fprintf(w, "  %-38s %9.1f  ", label, cr.AvgResponseSec)
			var d stats.Summary
			if control != nil {
				d = experiments.PairedResponseDelta(control, cr)
			}
			switch {
			case j == 0:
				fmt.Fprint(w, "control")
			case d.N < 2:
				fmt.Fprint(w, "-")
			case math.Abs(d.Mean) <= d.CI95:
				fmt.Fprintf(w, "%+8.1f ± %-7.1f %+7.1f%%  no detectable effect", d.Mean, d.CI95, 100*d.Mean/control.AvgResponseSec)
			default:
				fmt.Fprintf(w, "%+8.1f ± %-7.1f %+7.1f%%", d.Mean, d.CI95, 100*d.Mean/control.AvgResponseSec)
			}
			abandoned := 0
			for _, r := range cr.Runs {
				abandoned += r.JobsFailed
			}
			if abandoned > 0 {
				fmt.Fprintf(w, "  %d jobs abandoned", abandoned)
			}
			fmt.Fprintln(w)
		}
	}
}

// armLabel names an ablation arm by what sets it apart from its study's
// control, arms[0]: in a study whose arms differ in scheduler pair, by
// its pair; otherwise by its site-crash MTBF, or else the parameter it
// sets, or its pair and bandwidth when it sets none.
func armLabel(arm experiments.Cell, arms []experiments.Cell) string {
	pair := fmt.Sprintf("%s+%s@%gMB/s", arm.ES, arm.DS, arm.BandwidthMBps)
	control := arms[0]
	for _, a := range arms {
		if a.ES != control.ES || a.DS != control.DS {
			return pair
		}
	}
	switch {
	case arm.SiteMTBF != control.SiteMTBF:
		return fmt.Sprintf("site-mtbf=%gs", arm.SiteMTBF)
	case arm.Level != "":
		return arm.Param + "=" + arm.Level
	case arm.Param != "":
		return fmt.Sprintf("%s=%g", arm.Param, arm.Value)
	}
	return pair
}

// Histogram renders a text histogram of per-rank request counts — the
// Figure 2 reproduction. Bars are scaled to maxWidth characters; only the
// first `ranks` datasets are shown.
func Histogram(w io.Writer, counts []int, ranks, maxWidth int) {
	if ranks > len(counts) {
		ranks = len(counts)
	}
	peak := 0
	for _, c := range counts[:ranks] {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		fmt.Fprintln(w, "(no requests)")
		return
	}
	for i := 0; i < ranks; i++ {
		bar := counts[i] * maxWidth / peak
		fmt.Fprintf(w, "%4d %6d %s\n", i, counts[i], strings.Repeat("#", bar))
	}
}

// HotItems renders a bounded-mode hot-item table (Results.TopSites or
// Results.TopDatasets): one row per item with its count of completed jobs.
func HotItems(w io.Writer, label string, items []metrics.HotItem) {
	if len(items) == 0 {
		fmt.Fprintf(w, "(no %s recorded)\n", label)
		return
	}
	fmt.Fprintf(w, "%-10s %12s\n", label, "jobs")
	for _, it := range items {
		fmt.Fprintf(w, "%-10d %12d\n", it.Key, it.Count)
	}
}

// ResponseHistogram renders the response-time distribution of a run
// (Results.RespHistCounts/RespHistEdges): one row per bin with its
// seconds range, job count, and a bar scaled to maxWidth characters.
func ResponseHistogram(w io.Writer, counts []int, edges []float64, maxWidth int) {
	if len(counts) == 0 || len(edges) != len(counts)+1 {
		fmt.Fprintln(w, "(no response histogram)")
		return
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		fmt.Fprintln(w, "(no completed jobs)")
		return
	}
	fmt.Fprintln(w, "response time (s)        jobs")
	for i, c := range counts {
		bar := c * maxWidth / peak
		fmt.Fprintf(w, "%8.0f-%-8.0f %10d %s\n", edges[i], edges[i+1], c, strings.Repeat("#", bar))
	}
}

// SensitivityCSV writes the sensitivity study (experiments.SensitivityCells)
// as CSV, one row per cell of cells in that order: the swept parameter and
// value, the scheduler pair, and its response, data, idle and site-load
// Gini means over seeds. Failed or missing cells are skipped.
func SensitivityCSV(w io.Writer, results []experiments.CellResult, cells []experiments.Cell) {
	idx := experiments.ByCell(results)
	fmt.Fprintln(w, "param,value,policy,avg_response_s,avg_data_mb_per_job,idle_pct,site_job_gini")
	for _, c := range cells {
		cr, ok := idx[c]
		if !ok || cr.Err != nil || len(cr.Runs) == 0 {
			continue
		}
		gini := 0.0
		for _, run := range cr.Runs {
			gini += run.SiteJobGini
		}
		gini /= float64(len(cr.Runs))
		fmt.Fprintf(w, "%s,%g,%s+%s,%.1f,%.1f,%.1f,%.3f\n", c.Param, c.Value, c.ES, c.DS,
			cr.AvgResponseSec, cr.AvgDataPerJobMB, 100*cr.AvgIdleFrac, gini)
	}
}

// SeedVariance writes, for each of cells in that order, how the 95%
// confidence interval of the mean response time converges as seeds
// accumulate (at every fifth seed and the last), the final summary, and a
// coefficient-of-variation verdict: the rigorous form of the paper's "we
// found no significant variation" across seeds (§5.2). Failed or missing
// cells are skipped.
func SeedVariance(w io.Writer, results []experiments.CellResult, cells []experiments.Cell) {
	idx := experiments.ByCell(results)
	sep := ""
	for _, c := range cells {
		cr, ok := idx[c]
		if !ok || cr.Err != nil || len(cr.Runs) == 0 {
			continue
		}
		resps := cr.ResponseSamples()
		// Results do not carry the configured job count; a run that
		// finished accounts for every job as done or abandoned.
		jobs := cr.Runs[0].JobsDone + cr.Runs[0].JobsFailed
		fmt.Fprintf(w, "%s%s + %s @ %g MB/s, %d jobs/run, %d seeds\n\n", sep, c.ES, c.DS, c.BandwidthMBps, jobs, len(resps))
		sep = "\n"
		fmt.Fprintf(w, "%6s %14s %14s %12s\n", "seeds", "mean resp (s)", "95% CI ±", "CI/mean")
		for n := 2; n <= len(resps); n++ {
			if n%5 == 0 || n == len(resps) {
				s := stats.Summarize(resps[:n])
				fmt.Fprintf(w, "%6d %14.1f %14.1f %11.1f%%\n", n, s.Mean, s.CI95, 100*s.CI95/s.Mean)
			}
		}
		fmt.Fprintf(w, "\nfinal: %s\n", stats.Summarize(resps))
		cv := stats.CoefficientOfVariation(resps)
		verdict := "substantial seed variation; consider more replications"
		if cv < 0.15 {
			verdict = "no significant seed variation (matches the paper's observation)"
		}
		fmt.Fprintf(w, "coefficient of variation: %.1f%% — %s\n", 100*cv, verdict)
	}
}
