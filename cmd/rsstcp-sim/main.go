// Command rsstcp-sim runs a single simulated transfer and prints a
// Web100-style summary, optionally dumping the recorded time series as CSV.
//
// The network defaults to the paper's dumbbell (shaped by -bw/-rtt/-rq);
// multi-hop topologies come from a preset (-topo), from repeatable -hop
// flags, or from splitting the dumbbell (-hops). -rev replaces the ideal
// reverse wire with a real rate-limited, queued ACK channel.
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
	"strings"
	"time"

	"rsstcp"
	"rsstcp/internal/experiment"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// algorithmIDs lists what -alg accepts, built from experiment.Algorithms()
// so the help cannot drift from the code.
func algorithmIDs() string {
	var ids []string
	for _, a := range experiment.Algorithms() {
		ids = append(ids, string(a))
	}
	return strings.Join(ids, "|")
}

func main() {
	var (
		alg      = flag.String("alg", "restricted", "algorithm: "+algorithmIDs())
		rtt      = flag.Duration("rtt", 60*time.Millisecond, "round-trip propagation delay")
		bwMbps   = flag.Int("bw", 100, "bottleneck bandwidth in Mbps")
		nicMbps  = flag.Int("nic", 0, "NIC rate in Mbps (0 = same as bottleneck)")
		ifq      = flag.Int("ifq", 100, "txqueuelen (IFQ capacity) in packets")
		rq       = flag.Int("rq", 250, "router queue per hop in packets")
		hops     = flag.Int("hops", 0, "split the dumbbell into this many identical hops (0 = 1)")
		aqm      = flag.String("aqm", "", "hop queue discipline: droptail|red (default droptail)")
		topo     = flag.String("topo", "", "topology preset: "+strings.Join(rsstcp.TopologyPresets(), "|"))
		rev      = flag.String("rev", "", "real reverse channel as rate=Mbps[,delay=D][,queue=N] (default: ideal wire)")
		duration = flag.Duration("duration", 25*time.Second, "run length")
		bytes    = flag.Int64("bytes", 0, "transfer size (0 = backlogged for the whole run)")
		arrivals = flag.String("arrivals", "", "dynamic flow arrivals: poisson:RATE|mmpp:LO:HI:SOJOURN|web:S:F:THINK (default: one static flow)")
		fsize    = flag.String("fsize", "", "dynamic transfer sizes: fixed:64k|exp:100k|pareto:A:MIN:MAX|lognorm:MED:SIGMA (default exp:100k)")
		load     = flag.Float64("load", 0, "offered load as a fraction of the bottleneck (rescales -arrivals; 0 = use the spec's own rate)")
		maxflows = flag.Int("maxflows", 0, "admission cap on concurrently live dynamic flows (0 = unbounded)")
		wheel    = flag.Bool("wheel", false, "run flow timers on the hierarchical timer wheel (byte-identical results, cheaper at high flow counts)")
		retain   = flag.Int("retain", 0, "per-flow completion records to retain under churn: 0 = all, -1 = digest only, N = first N (the FCT summary always covers every flow)")
		setpoint = flag.Float64("setpoint", 0, "RSS IFQ set point fraction (0 = paper's 0.9)")
		sack     = flag.Bool("sack", false, "enable SACK")
		seed     = flag.Uint64("seed", 1, "random seed")
		csvPath  = flag.String("csv", "", "write recorded time series to this CSV file")

		eventsPath = flag.String("events", "", "write the flight-recorder congestion timeline as JSONL to this file (\"-\" = stdout)")
		eventsCap  = flag.Int("events-cap", 0, "flight-recorder ring capacity in events (0 = default 2048)")

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var hopSpecs []rsstcp.Hop
	flag.Func("hop", "add one forward hop as rate=Mbps,delay=D,queue=N[,aqm=red][,loss=P][,reorder=P:D][,dup=P] (repeatable)", func(s string) error {
		h, err := rsstcp.ParseHop(s)
		if err != nil {
			fatal(err) // exit 1 with one line; returning it gets flag's usage dump and 2
		}
		hopSpecs = append(hopSpecs, h)
		return nil
	})
	flag.Parse()

	stopProfiling, err := telemetry.StartProfiling(*pprofAddr, *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()

	path := rsstcp.Path{
		Bottleneck:  rsstcp.Bandwidth(*bwMbps) * rsstcp.Mbps,
		NICRate:     rsstcp.Bandwidth(*nicMbps) * rsstcp.Mbps,
		RTT:         *rtt,
		RouterQueue: *rq,
		TxQueueLen:  *ifq,
		Hops:        *hops,
		AQM:         rsstcp.QueueDiscipline(*aqm),
	}
	flowSpec := rsstcp.Flow{
		Alg:              rsstcp.Algorithm(*alg),
		Bytes:            *bytes,
		SetpointFraction: *setpoint,
		SACK:             *sack,
	}
	opts := rsstcp.Options{
		Path:        path,
		Duration:    *duration,
		Seed:        *seed,
		EventLog:    *eventsCap,
		TimerWheel:  *wheel,
		RetainFlows: *retain,
	}
	if *arrivals != "" || *fsize != "" || *load > 0 || *maxflows > 0 {
		// A dynamic workload replaces the single static flow: the flag-derived
		// spec becomes the template every arrival is stamped from. Sizes come
		// from -fsize, so an explicit -bytes would silently never run.
		if *bytes != 0 {
			fatal(fmt.Errorf("-bytes conflicts with a dynamic workload; transfer sizes come from -fsize"))
		}
		flowSpec.Bytes = 0
		opts.Churn = &rsstcp.Churn{
			Arrivals: *arrivals,
			Size:     *fsize,
			Load:     *load,
			MaxLive:  *maxflows,
			Flow:     flowSpec,
		}
	} else {
		opts.Flows = []rsstcp.Flow{flowSpec}
	}
	if *topo != "" && len(hopSpecs) > 0 {
		fatal(fmt.Errorf("-topo and -hop are mutually exclusive"))
	}
	if *topo != "" || len(hopSpecs) > 0 {
		// An explicit topology overrides the dumbbell entirely; silently
		// ignoring explicitly-set path flags would attribute the results to
		// parameters that never ran (the campaign CLI rejects the same
		// combination).
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, n := range []string{"bw", "rtt", "rq", "aqm", "hops"} {
			if explicit[n] {
				fatal(fmt.Errorf("-topo/-hop replace the path; drop the -%s flag", n))
			}
		}
	}
	if *topo != "" {
		if err := rsstcp.ApplyPreset(&opts, *topo); err != nil {
			fatal(err)
		}
	}
	if len(hopSpecs) > 0 {
		opts.Topology = rsstcp.NewTopology(hopSpecs...)
	}
	if *rev != "" {
		r, err := rsstcp.ParseReverse(*rev)
		if err != nil {
			fatal(err)
		}
		if opts.Topology != nil {
			opts.Topology.Reverse = r
		} else {
			opts.Path.ReverseRate = r.Rate
			opts.Path.ReverseDelay = r.Delay
			opts.Path.ReverseQueue = r.Queue
		}
	}

	s, err := rsstcp.Build(opts)
	if err != nil {
		fatal(err)
	}
	res := s.Run()

	// With an explicit topology the -bw/-rtt flag values never ran; describe
	// (and itemize, below) the hops that did.
	explicitTopo := opts.Topology != nil
	st := res.Stats
	fmt.Printf("algorithm        %s\n", res.Alg)
	topoDesc := fmt.Sprintf("%v bottleneck, %v RTT, IFQ %d pkts", path.Bottleneck, *rtt, *ifq)
	if explicitTopo || len(s.Topo.Hops) > 1 {
		topoDesc = fmt.Sprintf("%d hops, %v one-way, IFQ %d pkts", len(s.Topo.Hops), s.Topo.ForwardDelay(), *ifq)
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
		if err := res.Rec.WriteCSV(f); err != nil {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsstcp-sim:", err)
	os.Exit(1)
}
