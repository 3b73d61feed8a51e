// Command dgetrace analyzes Data Grid execution (DGE) traces. It loads a
// trace written by `chicsim -trace-out`, replays it once
// (trace.BuildSpans), which checks the lifecycle, transfer and
// fault-injection invariants, and prints the offline analysis the mode
// asks for. Trace files ending in .gz are gunzipped transparently.
//
//	chicsim -es JobDataPresent -ds DataLeastLoaded -trace-out dge.jsonl.gz
//	dgetrace dge.jsonl.gz                  # summary
//	dgetrace -validate dge.jsonl.gz        # the invariant check alone
//	dgetrace -spans 17 dge.jsonl.gz        # span tree of job 17
//	dgetrace -critpath dge.jsonl.gz        # whole-DGE critical path + decomposition
//	dgetrace -chrome dge.json dge.jsonl.gz # Chrome trace-event JSON (Perfetto)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"chicsim/internal/obs"
	"chicsim/internal/trace"
)

func main() {
	topN := flag.Int("top", 5, "analysis: show the N hottest files and sites")
	spans := flag.Int("spans", -1, "print the span tree of this job id (-1 = off)")
	critpath := flag.Bool("critpath", false, "print the whole-DGE critical path and response decomposition")
	chrome := flag.String("chrome", "", "export a Chrome trace-event JSON file to this path (view in Perfetto)")
	validate := flag.Bool("validate", false, "check lifecycle, transfer, and fault-injection invariants, then exit")
	obs.ParseFlags(flag.CommandLine, os.Args[1:])
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dgetrace [-validate|-spans N|-critpath|-chrome out.json] <trace.jsonl[.gz]>")
		os.Exit(2)
	}
	log, err := trace.OpenLog(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *validate {
		forest, err := trace.BuildSpans(log)
		if err != nil {
			fatal(fmt.Errorf("trace INVALID: %w", err))
		}
		cut := ""
		if forest.Cut {
			cut = " (cut short: jobs open at the cut left out)"
		}
		fmt.Printf("trace OK: %d events%s, lifecycle + transfer + fault invariants hold\n", log.Len(), cut)
		return
	}
	if *chrome != "" {
		forest, err := trace.BuildSpans(log)
		if err != nil {
			fatal(fmt.Errorf("trace INVALID: %w", err))
		}
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := forest.WriteChrome(f, log); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dgetrace: wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", *chrome)
		return
	}
	if *spans >= 0 {
		printSpans(log, *spans)
		return
	}
	if *critpath {
		printCritPath(log)
		return
	}

	a, err := trace.Analyze(log)
	if err != nil {
		fatal(fmt.Errorf("trace INVALID: %w", err))
	}
	fmt.Printf("DGE trace: %d events, %d jobs, makespan %.0f s — invariants OK\n",
		log.Len(), len(a.Jobs), a.Makespan)
	fmt.Printf("response time:    %s\n", a.Response)
	fmt.Printf("queue wait:       %s\n", a.QueueWait)
	fmt.Printf("data moved:       %.1f MB/job (fetch %.1f GB + replication %.1f GB, %d + %d transfers)\n",
		a.AvgDataPerJobMB(), a.FetchBytes/1e9, a.ReplBytes/1e9, a.FetchCount, a.ReplCount)
	fmt.Printf("replication:      %d pushes decided, %d evictions\n", a.PushCount, a.EvictCount)
	fmt.Printf("site-load Gini:   %.3f (0 = even, 1 = one hotspot)\n", a.SiteLoadGini())

	type kv struct {
		id int
		v  float64
	}
	// Largest first; ties by id, since the maps range in random order.
	byValue := func(kvs []kv) func(i, j int) bool {
		return func(i, j int) bool {
			if kvs[i].v != kvs[j].v {
				return kvs[i].v > kvs[j].v
			}
			return kvs[i].id < kvs[j].id
		}
	}
	var files []kv
	for f, b := range a.BytesPerFile {
		files = append(files, kv{f, b})
	}
	sort.Slice(files, byValue(files))
	fmt.Printf("hottest files by bytes moved:")
	for i := 0; i < len(files) && i < *topN; i++ {
		fmt.Printf(" f%d(%.1fGB)", files[i].id, files[i].v/1e9)
	}
	fmt.Println()

	var sites []kv
	for s, n := range a.JobsPerSite {
		sites = append(sites, kv{s, float64(n)})
	}
	sort.Slice(sites, byValue(sites))
	fmt.Printf("busiest sites by jobs:")
	for i := 0; i < len(sites) && i < *topN; i++ {
		fmt.Printf(" s%d(%d)", sites[i].id, int(sites[i].v))
	}
	fmt.Println()
}

// printSpans renders one job's reconstructed span tree.
func printSpans(log *trace.Log, jobID int) {
	forest, err := trace.BuildSpans(log)
	if err != nil {
		fatal(fmt.Errorf("trace INVALID: %w", err))
	}
	t := forest.Job(jobID)
	if t == nil {
		fatal(fmt.Errorf("job %d not found among %d completed jobs", jobID, len(forest.Jobs)))
	}
	fmt.Printf("job %d (user %d, site %d, %d retries): response %.1f s\n",
		t.Job, t.User, t.Site, t.Retries, t.Response())
	d := t.Decomp
	fmt.Printf("decomposition: retry %.1f + data %.1f + queue %.1f + exec %.1f = %.1f s\n",
		d.Retry, d.Data, d.Queue, d.Exec, d.Response())
	printSpan(t.Root, 0)
}

func printSpan(s *trace.Span, depth int) {
	indent := strings.Repeat("  ", depth)
	detail := ""
	if s.File >= 0 {
		detail += fmt.Sprintf(" file=%d", s.File)
	}
	if s.Src >= 0 {
		detail += fmt.Sprintf(" %d→%d", s.Src, s.Dst)
	}
	if s.Bytes > 0 {
		detail += fmt.Sprintf(" %.0fMB", s.Bytes/1e6)
	}
	if s.Aborted {
		detail += " ABORTED"
	}
	fmt.Printf("%s%-9s [%10.1f, %10.1f] %8.1fs%s\n", indent, s.Kind, s.Start, s.End, s.Duration(), detail)
	for _, c := range s.Children {
		printSpan(c, depth+1)
	}
}

// printCritPath renders the whole-DGE critical path and the aggregate
// response-time decomposition.
func printCritPath(log *trace.Log) {
	forest, err := trace.BuildSpans(log)
	if err != nil {
		fatal(fmt.Errorf("trace INVALID: %w", err))
	}
	st := forest.DecompStats()
	fmt.Printf("DGE: %d jobs completed, %d abandoned, makespan %.0f s\n",
		len(forest.Jobs), len(forest.Abandoned), forest.Makespan)
	fmt.Printf("mean response %.1f s = retry %.1f + data %.1f + queue %.1f + exec %.1f\n",
		st.MeanResponse, st.MeanRetry, st.MeanData, st.MeanQueue, st.MeanExec)
	fmt.Printf("response shares: retry %.1f%%, data %.1f%%, queue %.1f%%, exec %.1f%%\n",
		100*st.RetryShare, 100*st.DataShare, 100*st.QueueShare, 100*st.ExecShare)

	p := forest.CriticalPath()
	if p.User < 0 {
		fmt.Println("critical path: (no completed jobs)")
		return
	}
	fmt.Printf("critical path: user %d's chain of %d jobs, [%.1f, %.1f] (%.1f s)\n",
		p.User, len(p.Jobs), p.Start, p.End, p.Length())
	fmt.Printf("  retry %.1f + data %.1f + queue %.1f + exec %.1f + slack %.1f s\n",
		p.Retry, p.Data, p.Queue, p.Exec, p.Slack)
	frac := func(v float64) float64 {
		if p.Length() <= 0 {
			return 0
		}
		return 100 * v / p.Length()
	}
	fmt.Printf("  shares: retry %.1f%%, data %.1f%%, queue %.1f%%, exec %.1f%%, slack %.1f%%\n",
		frac(p.Retry), frac(p.Data), frac(p.Queue), frac(p.Exec), frac(p.Slack))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgetrace:", err)
	os.Exit(1)
}
