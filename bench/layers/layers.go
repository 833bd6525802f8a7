// Package layers holds the per-layer drivers of the benchmark: each one
// times calls into a single package's public API, with inputs shaped like
// the workload the figure is meant to explain. They are measured from
// outside, so a driver's time includes the calendar events and pooled
// segments its calls cause; README.md in the parent directory says which
// end-to-end metric each one should move.
package layers

import (
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/cc"
	"rsstcp/internal/core"
	"rsstcp/internal/experiment"
	"rsstcp/internal/host"
	"rsstcp/internal/lifecycle"
	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/pid"
	"rsstcp/internal/sim"
	"rsstcp/internal/stats"
	"rsstcp/internal/tcp"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/trace"
	"rsstcp/internal/unit"
)

// Driver is one layer micro-benchmark. Run does a fixed amount of work —
// divided by div, which is 1 for measurement and larger for smoke runs —
// and returns how many operations it timed and how long they took; set-up
// inside Run is not timed.
type Driver struct {
	// Metric is the per-layer metric the driver feeds.
	Metric string
	// Scale converts elapsed/ops (ns) into the metric's unit.
	Scale float64
	Run   func(div int) (ops int, elapsed time.Duration)
}

// Drivers lists every driver in report order.
var Drivers = []Driver{
	{"sim.hold8_ns.heap", 1, func(div int) (int, time.Duration) { return hold(false, 8, div) }},
	{"sim.hold8_ns.ladder", 1, func(div int) (int, time.Duration) { return hold(true, 8, div) }},
	{"sim.hold50k_ns.heap", 1, func(div int) (int, time.Duration) { return hold(false, 50000, div) }},
	{"sim.hold50k_ns.ladder", 1, func(div int) (int, time.Duration) { return hold(true, 50000, div) }},
	{"sim.wheel_arm_ns", 1, wheelArm},
	{"sim.timer_rearm_ns", 1, timerRearm},
	{"netem.arena_1hop_ns", 1, func(div int) (int, time.Duration) { return arena(1, false, div) }},
	{"netem.arena_3hop_red_ns", 1, func(div int) (int, time.Duration) { return arena(3, true, div) }},
	{"netem.link_ns", 1, reverseLink},
	{"netem.inject_ns", 1, inject},
	{"host.ifq_send_ns", 1, ifqSend},
	{"tcp.ack_ns", 1, func(div int) (int, time.Duration) { return tcpLoop(false, div) }},
	{"tcp.ack_sack_loss_ns", 1, func(div int) (int, time.Duration) { return tcpLoop(true, div) }},
	{"tcp.flowtable_row_ns", 1, flowTableRow},
	{"cc.on_ack_ns", 1, renoOnAck},
	{"core.pid_tick_ns", 1, pidTick},
	{"pid.update_ns", 1, pidUpdate},
	{"packet.get_release_ns", 1, packetGetRelease},
	{"lifecycle.arrival_draw_ns", 1, arrivalDraw},
	{"lifecycle.size_draw_ns", 1, sizeDraw},
	{"experiment.attach_detach_ns", 1, attachDetach},
	{"experiment.build_ms", 1e-6, gridBuild},
	{"experiment.reset_ms", 1e-6, gridReset},
	{"experiment.result_us", 1e-3, gridResult},
	{"stats.accumulate_ns", 1, accumulate},
	{"telemetry.record_ns", 1, flightRecord},
	{"trace.sample_ns", 1, traceSample},
}

func nop() {}

// hold is the classic hold model on one calendar backend: the calendar is
// kept at `pending` entries, every fired event schedules its successor at a
// uniformly drawn distance, and a re-armed far timer supplies 14% cancels —
// the paper path's measured share (81k cancels beside 571k fires).
func hold(ladder bool, pending, div int) (int, time.Duration) {
	ops := 200_000 / div
	eng := sim.NewEngine()
	eng.UseLadder(ladder)
	rng := sim.NewRNG(1)
	spread := int64(2 * time.Duration(pending) * time.Microsecond)
	var rto sim.Event
	var fire func()
	fire = func() {
		eng.ScheduleAfter(time.Duration(rng.Int63n(spread))+1, fire)
		if rng.Bool(0.163) { // c/(1+c) = 0.14
			eng.Cancel(rto)
			rto = eng.ScheduleAfter(200*time.Millisecond, nop)
		}
	}
	for i := 0; i < pending; i++ {
		eng.ScheduleAfter(time.Duration(rng.Int63n(spread))+1, fire)
	}
	for i := 0; i < 2*pending && i < ops; i++ { // reach the steady shape
		eng.Step()
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		eng.Step()
	}
	return ops, time.Since(t0)
}

// wheelArm re-arms 4096 wheel-hosted timers round-robin at RTO-like
// distances, advancing the clock now and then so slots flush.
func wheelArm(div int) (int, time.Duration) {
	ops := 1_000_000 / div
	eng := sim.NewEngine()
	w := sim.NewWheel(eng, sim.DefaultWheelGran, sim.DefaultWheelSlots)
	timers := make([]sim.Timer, 4096)
	for i := range timers {
		timers[i].Init(eng, w, nop)
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		timers[i&4095].Arm(200*time.Millisecond + time.Duration(i&63)*time.Millisecond)
		if i&63 == 0 {
			eng.RunFor(100 * time.Microsecond)
		}
	}
	return ops, time.Since(t0)
}

// timerRearm is the per-ACK RTO pattern on a calendar-hosted timer.
func timerRearm(div int) (int, time.Duration) {
	ops := 4_000_000 / div
	eng := sim.NewEngine()
	tm := sim.NewTimer(eng, nop)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		tm.Arm(time.Second)
		if i&31 == 0 {
			eng.RunFor(time.Microsecond)
		}
	}
	return ops, time.Since(t0)
}

// arena pushes full-size segments through a hop chain into a releasing
// sink, one in per serialization time so the queues hold steady. One hop is
// the paper path; three RED hops are topo_mix's parking lot. Per segment.
func arena(hops int, red bool, div int) (int, time.Duration) {
	ops := 150_000 / div
	eng := sim.NewEngine()
	pool := packet.NewPool()
	sink := netem.Func(func(seg *packet.Segment) { seg.Release() })
	a := netem.NewHopArena(eng)
	specs := make([]netem.HopSpec, hops)
	for i := range specs {
		specs[i] = netem.HopSpec{Rate: 100 * unit.Mbps, Delay: 10 * time.Millisecond, Queue: 250, Watch: 0.9}
		if red {
			cfg := netem.DefaultREDConfig(250)
			specs[i].RED = &cfg
			specs[i].REDSeed = uint64(i + 1)
		}
	}
	a.Configure(specs, sink, telemetry.NewFlightRecorder(0))
	a.SetSpan(1, 0, hops-1)
	gap := (100 * unit.Mbps).Serialization(unit.ByteSize(1448 + packet.HeaderBytes))
	send := func(n int) {
		for i := 0; i < n; i++ {
			seg := pool.Get()
			seg.Flow, seg.Len = 1, 1448
			a.Receive(0, seg)
			eng.RunFor(gap)
		}
	}
	send(2000)
	t0 := time.Now()
	send(ops)
	return ops, time.Since(t0)
}

// reverseLink serializes pure ACKs through the standalone Link the reverse
// channel still uses (5 Mbps, 50 packets — the reverse-congested preset).
func reverseLink(div int) (int, time.Duration) {
	ops := 200_000 / div
	eng := sim.NewEngine()
	pool := packet.NewPool()
	sink := netem.Func(func(seg *packet.Segment) { seg.Release() })
	link := netem.NewLink(eng, 5*unit.Mbps, 30*time.Millisecond, netem.NewDropTail(50), sink)
	gap := (5 * unit.Mbps).Serialization(unit.ByteSize(packet.HeaderBytes))
	send := func(n int) {
		for i := 0; i < n; i++ {
			seg := pool.Get()
			seg.Flow, seg.Flags, seg.Ack = 1, packet.FlagACK, int64(i)
			link.Receive(seg)
			eng.RunFor(gap)
		}
	}
	send(2000)
	t0 := time.Now()
	send(ops)
	return ops, time.Since(t0)
}

// inject runs segments through the loss → reorder → duplicate chain at the
// 1% rates topo_mix uses, into a releasing sink.
func inject(div int) (int, time.Duration) {
	ops := 500_000 / div
	eng := sim.NewEngine()
	pool := packet.NewPool()
	sink := netem.Func(func(seg *packet.Segment) { seg.Release() })
	dup := &netem.Duplicator{P: 0.01, RNG: sim.NewRNG(3), Next: sink}
	reo := netem.NewReorderer(eng, 0.01, time.Millisecond, sim.NewRNG(2), dup)
	loss := &netem.Loss{P: 0.01, RNG: sim.NewRNG(1), Next: reo}
	send := func(n int) {
		for i := 0; i < n; i++ {
			seg := pool.Get()
			seg.Flow, seg.Len, seg.Seq = 1, 1448, int64(i)*1448
			loss.Receive(seg)
			if i&63 == 0 {
				eng.RunFor(2 * time.Millisecond)
			}
		}
		eng.RunFor(10 * time.Millisecond)
	}
	send(1000)
	t0 := time.Now()
	send(ops)
	return ops, time.Since(t0)
}

// ifqSend is the host transmit path: Interface.Send into a half-full
// 100-packet IFQ and the serializer draining it, one in, one out.
func ifqSend(div int) (int, time.Duration) {
	ops := 300_000 / div
	eng := sim.NewEngine()
	pool := packet.NewPool()
	sink := netem.Func(func(seg *packet.Segment) { seg.Release() })
	nic := host.NewInterface(eng, host.InterfaceConfig{Rate: 100 * unit.Mbps, TxQueueLen: 100}, sink)
	gap := (100 * unit.Mbps).Serialization(unit.ByteSize(1448 + packet.HeaderBytes))
	send := func() {
		seg := pool.Get()
		seg.Flow, seg.Len = 1, 1448
		if !nic.Send(seg) {
			seg.Release() // a stall leaves the segment with the caller
		}
	}
	for i := 0; i < 50; i++ {
		send()
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		send()
		eng.RunFor(gap)
	}
	return ops, time.Since(t0)
}

// directPath is a TransmitPath with no NIC behind it: every segment goes
// straight onto the forward wire, so the tcp drivers time tcp, not host.
type directPath struct{ next netem.Receiver }

func (p directPath) Send(seg *packet.Segment) bool { p.next.Receive(seg); return true }
func (directPath) SetWaker(func())                 {}

// tcpLoop runs one Reno connection over two pure-delay wires until it has
// been ACKed a fixed number of segments. Clean, it is the per-ACK fast path
// of paper_path; with 1% loss and SACK it is the recovery path of topo_mix.
// Per ACKed segment, both endpoints and their timers included.
func tcpLoop(lossy bool, div int) (int, time.Duration) {
	segs := 250_000 / div
	eng := sim.NewEngine()
	cfg := tcp.DefaultConfig()
	cfg.Pool = packet.NewPool()
	cfg.SACK = lossy
	var snd *tcp.Sender
	rev := netem.NewWire(eng, 500*time.Microsecond, netem.Func(func(seg *packet.Segment) { snd.Receive(seg) }))
	rcv := tcp.NewReceiver(eng, cfg, 1, rev)
	var fwd netem.Receiver = netem.NewWire(eng, 500*time.Microsecond, rcv)
	if lossy {
		fwd = &netem.Loss{P: 0.01, RNG: sim.NewRNG(1), Next: fwd}
	}
	snd = tcp.NewSender(eng, cfg, 1, cc.NewReno(cc.DefaultRenoConfig()), directPath{fwd})
	snd.Supply(1 << 40)
	mss := int64(snd.MSS())
	ackedSegs := func() int64 { return snd.Stats().ThruOctetsAcked / mss }
	for ackedSegs() < 2000 { // leave slow-start behind
		eng.RunFor(time.Millisecond)
	}
	start := ackedSegs()
	t0 := time.Now()
	for ackedSegs()-start < int64(segs) {
		eng.RunFor(time.Millisecond)
	}
	d := time.Since(t0)
	n := int(ackedSegs() - start)
	snd.Stop()
	rcv.Stop()
	return n, d
}

// flowTableRow cycles hot-state rows through a warm table: release one,
// allocate one, as churn's attach and detach do.
func flowTableRow(div int) (int, time.Duration) {
	ops := 1_000_000 / div
	t := tcp.NewFlowTable(1024)
	rows := make([]int32, 1024)
	for i := range rows {
		rows[i] = t.Alloc()
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t.Free(rows[i&1023])
		rows[i&1023] = t.Alloc()
	}
	return ops, time.Since(t0)
}

// window is a free-standing cc.Window.
type window struct {
	cwnd, ssthresh int64
	now            sim.Time
}

func (w *window) MSS() int               { return 1448 }
func (w *window) Cwnd() int64            { return w.cwnd }
func (w *window) SetCwnd(b int64)        { w.cwnd = b }
func (w *window) Ssthresh() int64        { return w.ssthresh }
func (w *window) SetSsthresh(b int64)    { w.ssthresh = b }
func (w *window) FlightSize() int64      { return w.cwnd }
func (w *window) SRTT() time.Duration    { return 60 * time.Millisecond }
func (w *window) LastRTT() time.Duration { return 60 * time.Millisecond }
func (w *window) Now() sim.Time          { return w.now }

// renoOnAck is Reno's per-ACK window arithmetic in congestion avoidance.
func renoOnAck(div int) (int, time.Duration) {
	ops := 2_000_000 / div
	w := &window{}
	r := cc.NewReno(cc.DefaultRenoConfig())
	r.Attach(w)
	w.SetSsthresh(10 * 1448)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.OnAck(1448)
		if w.cwnd > 1<<24 {
			w.cwnd = 20 * 1448
		}
	}
	return ops, time.Since(t0)
}

// sensor is a fake IFQ for the controller: occupancy follows a slow saw so
// the PID sees a moving process variable.
type sensor struct{ n int }

func (s *sensor) Len() int      { s.n = (s.n + 1) % 100; return s.n }
func (s *sensor) Capacity() int { return 100 }

// pidTick is the restricted-slow-start control step — sensor read, EWMA,
// PID update, allowance — driven by its own ticker on an otherwise empty
// engine, with the window pinned in slow-start. Wall over Ticks().
func pidTick(div int) (int, time.Duration) {
	ticks := 400_000 / div
	eng := sim.NewEngine()
	rss := core.MustNew(eng, core.Config{Sensor: &sensor{}})
	w := &window{cwnd: 10 * 1448, ssthresh: 1 << 40}
	rss.Reset(w)
	start := rss.Ticks()
	t0 := time.Now()
	eng.RunFor(time.Duration(ticks) * 5 * time.Millisecond)
	d := time.Since(t0)
	n := int(rss.Ticks() - start)
	rss.Stop()
	return n, d
}

// pidUpdate is the bare controller step.
func pidUpdate(div int) (int, time.Duration) {
	ops := 2_000_000 / div
	c := pid.MustNew(pid.Config{
		Gains:           pid.PaperGains(core.DefaultCritical),
		Setpoint:        90,
		OutMin:          -12800,
		OutMax:          12800,
		IntegralBand:    13.5,
		DerivativeAlpha: 0.5,
	})
	var sink float64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sink += c.Update(float64(i%100), 5*time.Millisecond)
	}
	d := time.Since(t0)
	sinkF = sink
	return ops, d
}

var sinkF float64

// packetGetRelease is one trip through a scenario-private segment pool.
func packetGetRelease(div int) (int, time.Duration) {
	ops := 2_000_000 / div
	pool := packet.NewPool()
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		seg := pool.Get()
		seg.Len = 1448
		seg.Release()
	}
	return ops, time.Since(t0)
}

// arrivalDraw is one Poisson arrival: the gap draw and the calendar entry
// that delivers it.
func arrivalDraw(div int) (int, time.Duration) {
	arrivals := 500_000 / div
	eng := sim.NewEngine()
	src := lifecycle.NewPoisson(100000)
	n := 0
	src.Start(eng, sim.NewRNG(1), func() { n++ })
	t0 := time.Now()
	eng.RunFor(time.Duration(arrivals) * 10 * time.Microsecond)
	d := time.Since(t0)
	src.Stop()
	return n, d
}

// sizeDraw is one bounded-Pareto transfer size, churn's distribution.
func sizeDraw(div int) (int, time.Duration) {
	ops := 200_000 / div
	dist := lifecycle.BoundedPareto{Alpha: 1.2, Min: 4e3, Max: 10e6}
	rng := sim.NewRNG(1)
	var sink int64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sink += dist.Sample(rng)
	}
	d := time.Since(t0)
	sinkF = float64(sink)
	return ops, d
}

// attachDetach is the whole life of the smallest dynamic flow on a warm
// paper-path scenario: AttachFlow, one segment out and its ACK back, then
// the completion that detaches it — IDs, rows, NICs and routes all coming
// from the free lists, as in churn's steady state. Per flow.
func attachDetach(div int) (int, time.Duration) {
	ops := 8_000 / div
	s, err := experiment.Build(experiment.Config{
		Path:        experiment.PaperPath(),
		Churn:       &experiment.ChurnSpec{Arrivals: "poisson:0.001", Size: "fixed:1M"},
		Duration:    time.Hour,
		Traceless:   true,
		RetainFlows: -1,
	})
	if err != nil {
		panic(err) // a literal config: failing is a bug in this file
	}
	spec := experiment.FlowSpec{Alg: experiment.AlgStandard, Bytes: 1448}
	cycle := func(n int) {
		for i := 0; i < n; i += 16 {
			for j := 0; j < 16; j++ {
				if _, err := s.AttachFlow(spec); err != nil {
					panic(err)
				}
			}
			s.Eng.RunFor(200 * time.Millisecond) // more than an RTT: all sixteen complete
		}
	}
	cycle(512)
	t0 := time.Now()
	cycle(ops)
	d := time.Since(t0)
	if s.LiveFlows() != 0 {
		panic("layers: attachDetach left flows attached")
	}
	return ops, d
}

// CampaignGrid is the campaign_grid workload's sweep: 64 cells of 50 ms
// runs. The workload and the Build/Reset/ResultFor drivers share it so that
// the drivers price exactly the cells the workload runs.
func CampaignGrid() campaign.Grid {
	return campaign.Grid{
		Bandwidths:  []unit.Bandwidth{10 * unit.Mbps, 25 * unit.Mbps, 50 * unit.Mbps, 100 * unit.Mbps},
		RTTs:        []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond},
		TxQueueLens: []int{50, 100},
		Algorithms:  []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Duration:    50 * time.Millisecond,
	}
}

// gridConfigs are the 64 cell configurations of campaign_grid.
func gridConfigs() []experiment.Config {
	p := CampaignGrid().Plan()
	var cfgs []experiment.Config
	for _, c := range p.Cells() {
		cfg := p.Config(c, 0)
		cfg.Traceless = true
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// gridBuild is a cold experiment.Build per grid cell.
func gridBuild(div int) (int, time.Duration) {
	cfgs := gridConfigs()
	rounds := max(8/div, 1)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, cfg := range cfgs {
			if _, err := experiment.Build(cfg); err != nil {
				panic(err)
			}
		}
	}
	return rounds * len(cfgs), time.Since(t0)
}

// gridReset is Scenario.Reset per grid cell on one warm scenario — what a
// campaign worker pays between replicates.
func gridReset(div int) (int, time.Duration) {
	cfgs := gridConfigs()
	s, err := experiment.Build(cfgs[0])
	if err != nil {
		panic(err)
	}
	rounds := max(64/div, 1)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, cfg := range cfgs {
			if err := s.Reset(cfg); err != nil {
				panic(err)
			}
		}
	}
	return rounds * len(cfgs), time.Since(t0)
}

// gridResult is Scenario.ResultFor after a finished run of a grid cell.
func gridResult(div int) (int, time.Duration) {
	cfgs := gridConfigs()
	s, err := experiment.Build(cfgs[len(cfgs)-1])
	if err != nil {
		panic(err)
	}
	s.Run()
	ops := 20_000 / div
	var sink int64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sink += int64(s.ResultFor(0).Throughput)
	}
	d := time.Since(t0)
	sinkF = float64(sink)
	return ops, d
}

// accumulate is one value folded into a cell's streaming summary, the
// summary restarted every 32 values as a 32-replicate cell's is.
func accumulate(div int) (int, time.Duration) {
	ops := 1_000_000 / div
	var acc stats.Accumulator
	rng := sim.NewRNG(1)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if i&31 == 0 {
			acc.Reset()
		}
		acc.Add(rng.Float64())
	}
	d := time.Since(t0)
	sinkF = acc.Summary().Mean
	return ops, d
}

// flightRecord is one event written to the always-on ring.
func flightRecord(div int) (int, time.Duration) {
	ops := 2_000_000 / div
	fr := telemetry.NewFlightRecorder(0)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		fr.Record(sim.Time(i), telemetry.KindCwnd, 1, -1, int64(i), int64(i+1448))
	}
	return ops, time.Since(t0)
}

// traceSample is one sampling tick of a recorder with three gauges (cwnd,
// IFQ, utilization — what a traced one-flow scenario registers).
func traceSample(div int) (int, time.Duration) {
	ticks := 200_000 / div
	eng := sim.NewEngine()
	rec := trace.NewRecorder(eng)
	v := 0.0
	for _, name := range []string{"cwnd", "ifq", "util"} {
		rec.Gauge(name, func() float64 { v++; return v })
	}
	rec.ReserveSamples(ticks + 1)
	rec.Sample(100 * time.Millisecond)
	t0 := time.Now()
	eng.RunFor(time.Duration(ticks) * 100 * time.Millisecond)
	d := time.Since(t0)
	rec.StopSampling()
	return ticks, d
}
