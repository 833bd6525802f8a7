// Command rsstcp-tune runs the Ziegler-Nichols closed-loop procedure of the
// paper's Section 3 on a simulated path: it sweeps a proportional-only
// controller until the IFQ-occupancy loop sustains oscillation, reports the
// critical gain Kc and period Tc, and derives PID gains under each rule.
//
// -bw, -rtt and -ifq are the stock campaign axes of the same name, compiled by
// the flag compiler rsstcp-campaign uses; an unset one leaves the paper path's
// value (100 Mbps, 60 ms RTT, txqueuelen 100).
//
// Example:
//
//	rsstcp-tune -rtt 60ms -bw 100 -ifq 100
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rsstcp"
	"rsstcp/internal/campaign"
	"rsstcp/internal/telemetry"
)

// axisFlags are the flags that are stock campaign axes of the same name, in
// canonical order.
var axisFlags = []string{"bw", "rtt", "ifq"}

func main() {
	axes := campaign.NewAxisFlags(flag.CommandLine, axisFlags, nil, false)
	var (
		duration = flag.Duration("probe", 30*time.Second, "per-probe run length")
		validate = flag.Bool("validate", true, "run a full transfer with each derived gain set")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stop, err := telemetry.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiling = stop
	defer stopProfiling()

	plan := rsstcp.Plan{Axes: axes.Axes(), Base: rsstcp.Options{Path: rsstcp.PaperPath()}}
	cells, err := plan.Compile()
	if err != nil {
		fatal(err)
	}
	path := cells[0].Config.Path
	if *duration < 0 {
		// Tune rejects it too, but only after the header line.
		fatal(fmt.Errorf("-probe %v is negative (0 means 30s)", *duration))
	}

	fmt.Printf("tuning on %v bottleneck, %v RTT, IFQ %d pkts\n\n",
		path.Bottleneck, path.RTT, path.TxQueueLen)

	res, _, err := rsstcp.Tune(path, *duration, rsstcp.RulePaper)
	if err != nil {
		fatal(err)
	}

	fmt.Println("gain sweep (proportional control alone):")
	for _, tr := range res.Trials {
		marker := " "
		if tr.AtOrAbove {
			marker = "*"
		}
		fmt.Printf("  %s Kp=%-9.4f cycles=%-3d period=%-8.3fs amplitude=%-6.1f decay=%.2f\n",
			marker, tr.Kp, tr.Osc.Cycles, tr.Osc.Period, tr.Osc.Amplitude, tr.Osc.DecayRatio)
	}
	fmt.Printf("\ncritical point: Kc=%.4f Tc=%v\n\n", res.Critical.Kc, res.Critical.Tc)

	rules := []rsstcp.TuneRule{rsstcp.RulePaper, rsstcp.RuleClassic, rsstcp.RulePI, rsstcp.RuleNoOvershoot}
	for _, rule := range rules {
		g := res.Gains(rule)
		fmt.Printf("%-14s %v\n", rule, g)
		if !*validate {
			continue
		}
		run, err := rsstcp.Run(rsstcp.Options{
			Path:      path,
			Flows:     []rsstcp.Flow{{Alg: rsstcp.Restricted, Gains: g}},
			Duration:  25 * time.Second,
			Traceless: true,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("               -> %.2f Mbps, %d stalls\n",
			float64(run.Throughput)/1e6, run.Stalls)
	}
}

// stopProfiling flushes the -cpuprofile/-memprofile files; fatal calls it
// because os.Exit skips main's deferred call.
var stopProfiling = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsstcp-tune:", err)
	stopProfiling()
	os.Exit(1)
}
