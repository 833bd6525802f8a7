// Command rsstcp-campaign sweeps a parameter space on a bounded worker pool
// and prints per-cell aggregates (replicate mean, stddev, percentiles).
//
// Every sweep flag is the stock campaign axis of the same name, compiled by
// the flag compiler rsstcp-sim and rsstcp-tune share: the classic seven
// (-bw, -rtt, -rq, -ifq, -loss, -alg, -flows) have defaults, which an axis
// given on purpose that sweeps or conflicts with them replaces; the
// repeatable -axis flag stacks further dimensions after them; and -metrics
// selects and orders the output columns from the pluggable metric registry
// (default: the six stock metrics). There is one plan, one engine and one
// report: axis columns, then mean and std per metric.
//
// A campaign runs in one process, on a pool of -workers goroutines that
// each reuse one scenario across replicates. Results are byte-identical for
// any -workers value: replicate seeds are derived from the base seed and
// each cell's parameters, never from the schedule.
//
// Campaigns execute streaming: each finished replicate folds into its
// cell's running summaries and is dropped, so memory scales with the cell
// count, not the run count — large grids (10⁵–10⁶ runs) export aggregates
// only. Pass -retain-runs to keep every raw replicate in the JSON report.
//
// Examples:
//
//	rsstcp-campaign
//	rsstcp-campaign -bw 10,100,500 -rtt 20ms,60ms -alg standard,restricted -replicates 3
//	rsstcp-campaign -loss 0,0.001,0.01 -duration 10s -workers 4 -json out.json -csv out.csv
//	rsstcp-campaign -bw 100 -rtt 20ms,60ms -ifq 100 -alg restricted \
//	    -axis setpoint=0.5,0.7,0.9 -metrics throughput_mbps,fairness,t90_util_s
//	rsstcp-campaign -bw 100 -rtt 60ms -ifq 100 -alg restricted \
//	    -axis tick=5ms,10ms,20ms -axis mss=1448,8948 -metrics throughput_mbps,collapses
//
// Dynamic workloads sweep too: -load, -arrivals and -fsize open the
// flow-lifecycle axes (offered load, arrival process, transfer-size
// distribution), with completion-time metrics to match:
//
//	rsstcp-campaign -bw 100 -rtt 60ms -alg standard,restricted \
//	    -load 0.4,0.8 -fsize exp:100k,pareto:1.2:4k:10M \
//	    -metrics fct_mean,fct_p99,slowdown_mean,flows_done
//
// Topologies sweep too: -topo sweeps stock presets (parking-lot,
// reverse-congested, ...), repeatable -hop flags pin a custom hop chain on
// every cell, -rev makes the reverse channel a real queued link, and the
// hops/rbw/aqm axes open multi-hop splits, reverse-bottleneck rates and AQM
// disciplines as sweep dimensions:
//
//	rsstcp-campaign -topo parking-lot -alg standard,restricted \
//	    -axis rbw=5 -axis aqm=droptail,red \
//	    -metrics throughput_mbps,hop_drops_max,rev_drops
//	rsstcp-campaign -hop rate=100,delay=10ms,queue=250 -hop rate=50,delay=20ms,queue=120 \
//	    -rev rate=5,queue=50 -alg restricted -metrics throughput_mbps,rev_drops
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rsstcp"
	"rsstcp/internal/campaign"
	"rsstcp/internal/telemetry"
)

// axisFlags are the flags the campaign's flag compiler registers: the stock
// axes of the same name in canonical order (topology, churn, then the
// classic seven), and -hop and -rev.
var axisFlags = []string{"topo", "load", "arrivals", "fsize", "bw", "rtt", "rq", "ifq", "loss", "alg", "flows", "hop", "rev"}

func main() {
	defaults := map[string]string{"bw": "10,100,500", "rtt": "20ms,60ms", "rq": "250",
		"ifq": "50,100", "loss": "0", "alg": "standard,restricted", "flows": "1"}
	axes := campaign.NewAxisFlags(flag.CommandLine, axisFlags, defaults, true)
	var (
		replicates = flag.Int("replicates", 2, "replicates per cell")
		duration   = flag.Duration("duration", 10*time.Second, "virtual run length per replicate")
		seed       = flag.Uint64("seed", 1, "base seed for replicate derivation")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonPath   = flag.String("json", "", "write full results (runs + aggregates) as JSON to this file, or - for stdout")
		csvPath    = flag.String("csv", "", "write the aggregate table as CSV to this file, or - for stdout")
		quiet      = flag.Bool("quiet", false, "suppress progress reporting on stderr")

		// The report's columns, and its raw replicates.
		metrics    = flag.String("metrics", "", "metric columns to report, in order (comma list; known: "+strings.Join(rsstcp.MetricNames(), ",")+")")
		retainRuns = flag.Bool("retain-runs", false, "keep every raw replicate in the JSON report (memory grows with run count)")

		// Observability flags.
		anomalyDir = flag.String("anomaly-dir", "", "dump each anomalous replicate's flight-recorder timeline as JSONL into this directory")
		web100     = flag.Bool("web100", false, "attach per-flow Web100 snapshots to retained replicates (implies -retain-runs)")
		embedTel   = flag.Bool("telemetry", false, "embed the self-metrics snapshot into the JSON report (makes output wall-clock-dependent)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	// A bad -axis value, like a bad flag value, rides on its axis to
	// Plan.Compile: one line and exit 1, not a usage dump.
	axisUsage := "extra sweep axis as name=v1,v2 (repeatable), name and values one of:"
	for _, n := range rsstcp.StockAxisNames() {
		axisUsage += "\n" + n + ": " + campaign.AxisHelp(n)
	}
	flag.Func("axis", axisUsage, func(s string) error {
		axes.Extra(s)
		return nil
	})
	flag.Parse()

	stop, err := telemetry.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiling = stop
	defer stopProfiling()

	// A dynamic workload replaces the default single static flow, unless
	// -flows was set on purpose to keep that many static flows as background
	// load.
	if axes.Set("load") || axes.Set("arrivals") || axes.Set("fsize") {
		delete(defaults, "flows")
	}
	plan := rsstcp.Plan{Axes: axes.Axes(), Replicates: *replicates, Duration: *duration, BaseSeed: *seed}
	if *metrics != "" {
		if plan.Metrics, err = rsstcp.MetricsByName(split(*metrics)...); err != nil {
			fatalf("%v", err)
		}
	}
	// RunPlan compiles it again; this refuses a bad cell before "runs on".
	if _, err := plan.Compile(); err != nil {
		fatalf("%v", err)
	}
	if *workers < 0 {
		// RunPlan rejects it too, but only after the "runs on" line.
		fatalf("-workers %d is negative (0 means GOMAXPROCS)", *workers)
	}

	// Self-metrics are always collected (the cost is two clock reads per
	// span); the epilogue and -telemetry read them.
	self := campaign.NewSelfMetrics()
	opts := rsstcp.CampaignOptions{
		Workers:      *workers,
		RetainRuns:   *retainRuns || *web100,
		ExportWeb100: *web100,
		Self:         self,
	}
	if *anomalyDir != "" {
		if err := os.MkdirAll(*anomalyDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		opts.AnomalySink = func(cellKey string, rep int, events []byte) {
			name := fmt.Sprintf("%s__r%d.jsonl", sanitizeKey(cellKey), rep)
			if err := os.WriteFile(filepath.Join(*anomalyDir, name), events, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rsstcp-campaign: anomaly dump: %v\n", err)
			}
		}
	}
	if !*quiet {
		start := time.Now()
		opts.Progress = func(done, total int) {
			line := fmt.Sprintf("\rcampaign: %d/%d runs", done, total)
			if elapsed := time.Since(start); elapsed > 0 && done > 0 {
				rate := float64(done) / elapsed.Seconds()
				eta := time.Duration(float64(total-done) / rate * float64(time.Second))
				line += fmt.Sprintf("  %.0f runs/s  ETA %v", rate, eta.Round(time.Second))
			}
			fmt.Fprint(os.Stderr, line)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
		fmt.Fprintf(os.Stderr, "campaign: %d runs on %d workers\n",
			plan.Runs(), effectiveWorkers(*workers, plan.Runs()))
	}
	rep, err := rsstcp.RunPlan(plan, opts)
	if err != nil {
		fatalf("%v", err)
	}
	if *embedTel {
		rep.Telemetry = self.Snapshot()
	}
	render(*jsonPath, *csvPath, rep)

	// The self-metrics epilogue.
	if !*quiet && self.Runs.Value() > 0 {
		build, run, fold := self.Phases()
		fmt.Fprintf(os.Stderr,
			"campaign: %d runs in %v (%.0f runs/s, %.2gM events/s); phases build %v, run %v, fold %v\n",
			self.Runs.Value(), self.Elapsed().Round(time.Millisecond),
			self.RunsPerSec(), self.EventsPerSec()/1e6,
			build.Round(time.Millisecond), run.Round(time.Millisecond), fold.Round(time.Millisecond))
		if slow := self.SlowestCells(); len(slow) > 0 {
			if len(slow) > 3 {
				slow = slow[:3]
			}
			line := "campaign: slowest cells:"
			for _, cw := range slow {
				line += fmt.Sprintf(" %s (%v)", cw.Key, cw.Wall.Round(time.Millisecond))
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

// sanitizeKey maps a cell key ("bw=100Mbps/rtt=60ms/...") to a filename-safe
// slug: axis separators become double underscores, anything outside
// [A-Za-z0-9._=-] becomes a dash.
func sanitizeKey(key string) string {
	var b strings.Builder
	for _, r := range key {
		switch {
		case r == '/':
			b.WriteString("__")
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '=', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// render dispatches the selected exports; with no export flags (or when both
// went to files), the aggregate table goes to stdout.
func render(jsonPath, csvPath string, rep *rsstcp.Report) {
	wrote := false
	if jsonPath != "" {
		writeTo(jsonPath, rep.WriteJSON)
		wrote = true
	}
	if csvPath != "" {
		writeTo(csvPath, rep.WriteCSV)
		wrote = true
	}
	if !wrote || (jsonPath != "-" && csvPath != "-") {
		if err := rep.Table().Render(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
}

// effectiveWorkers is the pool the engine starts: the requested size (0 =
// the default), capped at the run count.
func effectiveWorkers(n, runs int) int {
	if n <= 0 {
		n = rsstcp.DefaultCampaignWorkers()
	}
	return min(n, runs)
}

func writeTo(path string, write func(io.Writer) error) {
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := write(w); err != nil {
		fatalf("%v", err)
	}
}

func split(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// stopProfiling flushes the -cpuprofile/-memprofile files; fatalf calls it
// because os.Exit skips main's deferred call.
var stopProfiling = func() {}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rsstcp-campaign: "+format+"\n", args...)
	stopProfiling()
	os.Exit(1)
}
