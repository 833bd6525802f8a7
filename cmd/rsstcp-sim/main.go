// Command rsstcp-sim runs a single simulated transfer and prints a
// Web100-style summary, optionally dumping the recorded time series as CSV.
//
// The run is a one-cell campaign plan. Every network, flow, churn and
// topology flag (-bw, -rtt, -ifq, -alg, -arrivals, -topo, ...) is the stock
// campaign axis of the same name with a single value, compiled by the flag
// compiler rsstcp-campaign uses, so it parses, range-checks and labels its
// value exactly as rsstcp-campaign does, and the campaign's rule table
// rejects flags that cannot meet (-topo with -bw). An
// unset flag leaves the paper's path: 100 Mbps, 60 ms RTT, a 250-packet
// router queue and txqueuelen 100. Multi-hop topologies come from a preset
// (-topo), from repeatable -hop flags, or from splitting the dumbbell
// (-hops). -rev replaces the ideal reverse wire with a real rate-limited,
// queued ACK channel.
//
// Examples:
//
//	rsstcp-sim -alg standard
//	rsstcp-sim -alg restricted -rtt 120ms -duration 30s
//	rsstcp-sim -alg restricted -ifq 50 -setpoint 0.8 -csv trace.csv
//	rsstcp-sim -topo parking-lot -alg restricted
//	rsstcp-sim -hop rate=100,delay=10ms,queue=250 -hop rate=50,delay=20ms,queue=120,aqm=red
//	rsstcp-sim -alg restricted -rev rate=2,queue=50
//	rsstcp-sim -alg standard -hop rate=100,delay=10ms,queue=50,loss=1 -events loss.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rsstcp"
	"rsstcp/internal/campaign"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// axisFlags are the flags the campaign's flag compiler registers: the stock
// axes of the same name in canonical order (topology, churn, path, then
// per-flow), and -hop and -rev.
var axisFlags = []string{"topo", "load", "arrivals", "fsize", "bw", "rtt", "rq", "ifq", "nic", "hops", "aqm", "alg", "setpoint", "bytes", "sack", "hop", "rev"}

func main() {
	// alg alone has a default.
	axes := campaign.NewAxisFlags(flag.CommandLine, axisFlags, map[string]string{"alg": "restricted"}, false)
	var (
		duration = flag.Duration("duration", 25*time.Second, "run length")
		maxflows = flag.Int("maxflows", 0, "admission cap on concurrently live dynamic flows (0 = unbounded)")
		wheel    = flag.Bool("wheel", false, "run flow timers on the hierarchical timer wheel (byte-identical results, cheaper at high flow counts)")
		retain   = flag.Int("retain", 0, "per-flow completion records to retain under churn: 0 = all, -1 = digest only, N = first N (the FCT summary always covers every flow)")
		seed     = flag.Uint64("seed", 1, "random seed")
		csvPath  = flag.String("csv", "", "write recorded time series to this CSV file")

		eventsPath = flag.String("events", "", "write the flight-recorder congestion timeline as JSONL to this file (\"-\" = stdout)")
		eventsCap  = flag.Int("events-cap", 0, "flight-recorder ring capacity in events (0 = default 2048, at most 4194304)")

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

	plan := rsstcp.Plan{Axes: axes.Axes(), Duration: *duration, Base: rsstcp.Options{
		EventLog: *eventsCap, TimerWheel: *wheel, RetainFlows: *retain}}
	if *maxflows != 0 {
		plan.Base.Churn = &rsstcp.Churn{MaxLive: *maxflows}
	}
	cells, err := plan.Compile()
	if err != nil {
		fatal(err)
	}
	opts := cells[0].Config
	opts.Seed = *seed

	s, err := rsstcp.Build(opts)
	if err != nil {
		fatal(err)
	}
	res := s.Run()

	// The path line reads the config that ran. With an explicit topology the
	// dumbbell fields never did; describe (and itemize, below) the hops.
	explicitTopo := opts.Topology != nil
	st := res.Stats
	fmt.Printf("algorithm        %s\n", res.Alg)
	path := s.Cfg.Path
	topoDesc := fmt.Sprintf("%v bottleneck, %v RTT, IFQ %d pkts", path.Bottleneck, path.RTT, path.TxQueueLen)
	if explicitTopo || len(s.Topo.Hops) > 1 {
		topoDesc = fmt.Sprintf("%d hops, %v one-way, IFQ %d pkts", len(s.Topo.Hops), s.Topo.ForwardDelay(), path.TxQueueLen)
	}
	fmt.Printf("path             %s\n", topoDesc)
	fmt.Printf("duration         %v\n", res.Duration)
	fmt.Printf("throughput       %.2f Mbps\n", float64(res.Throughput)/1e6)
	fmt.Printf("utilization      %.3f\n", res.Utilization)
	if opts.Churn != nil {
		printChurn(res)
	} else {
		fmt.Printf("acked            %s\n", unit.ByteSize(st.ThruOctetsAcked))
		fmt.Printf("send-stalls      %d\n", st.SendStall)
		fmt.Printf("cong-signals     %d (fast-retrans %d, timeouts %d, local %d)\n",
			st.CongSignals, st.FastRetran, st.Timeouts, st.LocalCongCwnd)
		fmt.Printf("segments         out %d, retrans %d, dup-acks-in %d\n",
			st.SegsOut, st.SegsRetrans, st.DupAcksIn)
		fmt.Printf("cwnd             cur %d, max %d (bytes)\n", st.CurCwnd, st.MaxCwnd)
		fmt.Printf("rtt              min %v, srtt %v, max %v (rto %v)\n",
			st.MinRTT, st.SmoothedRTT, st.MaxRTT, st.CurRTO)
		fmt.Printf("snd-lim          cwnd %v, rwnd %v, sender %v\n",
			st.SndLimTimeCwnd, st.SndLimTimeRwnd, st.SndLimTimeSender)
	}
	fmt.Printf("router-drops     %d\n", res.RouterDrops)
	if explicitTopo || len(res.Hops) > 1 {
		for i, h := range res.Hops {
			hc := s.Topo.Hops[i]
			fmt.Printf("hop %-2d           %v %v q=%d %s: drops=%d maxq=%d avgq=%.1f util=%.3f",
				i, hc.Rate, hc.Delay, hc.Queue, hc.Discipline,
				h.Drops, h.MaxQueue, h.AvgQueue, h.Utilization)
			if h.LossDrops+h.Reordered+h.Duplicated > 0 {
				fmt.Printf(" loss=%d reorder=%d dup=%d", h.LossDrops, h.Reordered, h.Duplicated)
			}
			fmt.Println()
		}
	}
	if s.Topo.Reverse.Rate > 0 {
		fmt.Printf("reverse          %v, %d pkts queue: ack-drops=%d\n",
			s.Topo.Reverse.Rate, s.Topo.Reverse.Queue, res.ReverseDrops)
	}
	if opts.Churn == nil {
		fmt.Printf("nic              sent %d segs, max IFQ %d pkts\n", res.NIC.Sent, res.NIC.MaxQueue)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := s.Rec.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace            %s\n", *csvPath)
	}

	if *eventsPath != "" {
		w := os.Stdout
		if *eventsPath != "-" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := s.FR.WriteJSONL(w); err != nil {
			fatal(err)
		}
		if *eventsPath != "-" {
			fmt.Printf("events           %s (%d recorded, %d evicted)\n",
				*eventsPath, s.FR.Len(), s.FR.Evicted())
		}
	}
}

// printChurn summarizes a dynamic-workload run from the streaming FCT
// digest, which covers every completion even when the per-flow record list
// is capped (Config.RetainFlows).
func printChurn(res rsstcp.Result) {
	var done int64
	if res.FCT != nil {
		done = res.FCT.Count
	}
	fmt.Printf("flows            %d completed, %d live at end, %d refused\n",
		done, res.FlowsActive, res.FlowsRefused)
	if res.FCT == nil {
		return
	}
	f := res.FCT
	fmt.Printf("fct              mean %.2f ms, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
		f.Mean*1e3, f.P50*1e3, f.P90*1e3, f.P99*1e3)
	fmt.Printf("slowdown         mean %.2f (small %.2f x%d, medium %.2f x%d, large %.2f x%d)\n",
		f.SlowdownMean,
		f.Class[0].SlowdownMean, f.Class[0].Count,
		f.Class[1].SlowdownMean, f.Class[1].Count,
		f.Class[2].SlowdownMean, f.Class[2].Count)
	fmt.Printf("transferred      %s (%d segs retransmitted)\n", unit.ByteSize(f.Bytes), f.Retrans)
}

// stopProfiling flushes the -cpuprofile/-memprofile files; fatal calls it
// because os.Exit skips main's deferred call.
var stopProfiling = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsstcp-sim:", err)
	stopProfiling()
	os.Exit(1)
}
