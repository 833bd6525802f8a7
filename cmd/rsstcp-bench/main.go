// Command rsstcp-bench regenerates the paper's evaluation — every figure
// and table plus the ablations in DESIGN.md — and prints the same rows and
// series the paper reports.
//
// Examples:
//
//	rsstcp-bench -experiment figure1
//	rsstcp-bench -experiment throughput -duration 25s
//	rsstcp-bench -experiment all
//	rsstcp-bench -experiment figure1 -format csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

type generator struct {
	id   string
	name string
	run  func(path experiment.PathConfig, duration time.Duration, seed uint64) (*experiment.Table, error)
}

func generators() []generator {
	return []generator{
		{"figure1", "F1: cumulative send-stall signals vs time", runFigure1},
		{"throughput", "T1: throughput comparison (paper §4)", experiment.ThroughputTable},
		{"ifqsweep", "T2: IFQ size sweep (memory vs throughput)",
			func(p experiment.PathConfig, d time.Duration, s uint64) (*experiment.Table, error) {
				return experiment.IFQSweep(p, nil, d, s)
			}},
		{"rttsweep", "T3: RTT sweep across slow-start schemes",
			func(p experiment.PathConfig, d time.Duration, s uint64) (*experiment.Table, error) {
				return experiment.RTTSweep(p, nil, d, s)
			}},
		{"tune", "T4: Ziegler-Nichols tuning table", experiment.TuneTable},
		{"setpoint", "T5: IFQ set-point ablation",
			func(p experiment.PathConfig, d time.Duration, s uint64) (*experiment.Table, error) {
				return experiment.SetpointSweep(p, nil, d, s)
			}},
		{"friendliness", "T6: network friendliness vs cross traffic", experiment.FriendlinessTable},
		{"nicrate", "T7: NIC rate sweep (where does the burst land?)",
			func(p experiment.PathConfig, d time.Duration, s uint64) (*experiment.Table, error) {
				return experiment.NICRateTable(p, nil, d, s)
			}},
		{"ticksweep", "T8: RSS control-tick ablation",
			func(p experiment.PathConfig, d time.Duration, s uint64) (*experiment.Table, error) {
				return experiment.TickSweep(p, nil, d, s)
			}},
	}
}

// experimentIDs lists what -experiment accepts, in table order; the flag
// help and the unknown-id error are built from it so neither can drift
// from generators().
func experimentIDs() string {
	var ids []string
	for _, g := range generators() {
		ids = append(ids, g.id)
	}
	return strings.Join(append(ids, "all"), "|")
}

func runFigure1(path experiment.PathConfig, duration time.Duration, seed uint64) (*experiment.Table, error) {
	fig, err := experiment.Figure1(path, duration, seed)
	if err != nil {
		return nil, err
	}
	tbl := fig.Table()
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("standard:   %.2f Mbps, %d stalls", float64(fig.StandardResult.Throughput)/1e6, fig.StandardResult.Stalls),
		fmt.Sprintf("restricted: %.2f Mbps, %d stalls", float64(fig.RestrictedResult.Throughput)/1e6, fig.RestrictedResult.Stalls),
	)
	return tbl, nil
}

func main() {
	var (
		expName  = flag.String("experiment", "all", "experiment id: "+experimentIDs())
		duration = flag.Duration("duration", 25*time.Second, "per-run duration")
		rtt      = flag.Duration("rtt", 60*time.Millisecond, "round-trip propagation delay")
		bwMbps   = flag.Int("bw", 100, "bottleneck bandwidth in Mbps")
		ifq      = flag.Int("ifq", 100, "txqueuelen in packets")
		seed     = flag.Uint64("seed", 1, "random seed")
		format   = flag.String("format", "text", "output format: text|csv")

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiling, err := telemetry.StartProfiling(*pprofAddr, *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsstcp-bench:", err)
		os.Exit(1)
	}
	defer stopProfiling()

	path := experiment.PaperPath()
	path.RTT = *rtt
	path.Bottleneck = unit.Bandwidth(*bwMbps) * unit.Mbps
	path.NICRate = 0 // defaults to the bottleneck, the paper's pathology case
	path.TxQueueLen = *ifq

	ran := 0
	for _, g := range generators() {
		if *expName != "all" && *expName != g.id {
			continue
		}
		ran++
		fmt.Printf("== %s ==\n", g.name)
		tbl, err := g.run(path, *duration, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsstcp-bench: %s: %v\n", g.id, err)
			os.Exit(1)
		}
		var werr error
		if *format == "csv" {
			werr = tbl.CSV(os.Stdout)
		} else {
			werr = tbl.Render(os.Stdout)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "rsstcp-bench:", werr)
			os.Exit(1)
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rsstcp-bench: unknown experiment %q (valid: %s)\n", *expName, experimentIDs())
		os.Exit(2)
	}
}
