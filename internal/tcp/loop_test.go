package tcp

// End-to-end tests: a full connection through the real host interface and
// network elements. These exercise the interactions the unit tests cannot:
// ACK clocking, delayed ACKs, queue buildup, loss recovery through the
// actual path, and the send-stall pathology on a rate-limited NIC.

import (
	"testing"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/host"
	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// loopOpts configures the test network.
type loopOpts struct {
	nicRate    unit.Bandwidth
	txqueuelen int
	bottleneck unit.Bandwidth // 0 = none (wire only)
	routerQLen int
	owd        time.Duration // one-way propagation delay
	fwdLoss    *netem.Loss   // optional loss injector after the bottleneck
	fwdDrop    *dropEvery    // optional deterministic dropper after the loss injector
	cfg        Config
	ctrl       cc.Controller
}

type loop struct {
	eng *sim.Engine
	snd *Sender
	rcv *Receiver
	nic *host.Interface
}

func buildLoop(o loopOpts) *loop {
	eng := sim.NewEngine()
	if o.ctrl == nil {
		o.ctrl = cc.NewReno(cc.RenoConfig{IW: 2})
	}
	if o.owd == 0 {
		o.owd = 10 * time.Millisecond
	}
	if o.nicRate == 0 {
		o.nicRate = 1 * unit.Gbps
	}
	if o.txqueuelen == 0 {
		o.txqueuelen = 1000
	}
	if o.routerQLen == 0 {
		o.routerQLen = 200
	}

	l := &loop{eng: eng}

	// Reverse path: receiver -> wire -> sender. The sender is created
	// after the receiver, so indirect through a Func.
	revWire := netem.NewWire(eng, o.owd, netem.Func(func(seg *packet.Segment) { l.snd.Receive(seg) }))
	l.rcv = NewReceiver(eng, o.cfg, 1, revWire)

	// Forward path: NIC -> [loss] -> [bottleneck link] -> wire -> receiver.
	var fwd netem.Receiver = netem.NewWire(eng, o.owd, l.rcv)
	if o.bottleneck > 0 {
		fwd = netem.NewLink(eng, o.bottleneck, 0, netem.NewDropTail(o.routerQLen), fwd)
	}
	if o.fwdLoss != nil {
		o.fwdLoss.Next = fwd
		fwd = o.fwdLoss
	}
	if o.fwdDrop != nil {
		o.fwdDrop.next = fwd
		fwd = o.fwdDrop
	}
	l.nic = host.NewInterface(eng, host.InterfaceConfig{Rate: o.nicRate, TxQueueLen: o.txqueuelen}, fwd)
	l.snd = NewSender(eng, o.cfg, 1, o.ctrl, l.nic)
	return l
}

// dropEvery drops every nth segment it sees, counted from 1: the
// deterministic losses the recovery tests need.
type dropEvery struct {
	n, seen, dropped int
	next             netem.Receiver
}

func (d *dropEvery) Receive(seg *packet.Segment) {
	d.seen++
	if d.seen%d.n == 0 {
		d.dropped++
		seg.Release()
		return
	}
	d.next.Receive(seg)
}

func TestLoopTransferCompletes(t *testing.T) {
	l := buildLoop(loopOpts{cfg: Config{MSS: 1000}})
	const total = 500_000
	done := false
	l.snd.cfg.OnComplete = func(*Sender) { done = true }
	l.snd.Supply(total)
	l.snd.Close()
	l.eng.RunUntil(sim.At(30 * time.Second))
	if !done {
		t.Fatal("transfer did not complete")
	}
	if got := l.snd.Stats().ThruOctetsAcked; got != total {
		t.Errorf("ThruOctetsAcked = %d, want %d", got, total)
	}
	if got := l.rcv.RcvNxt(); got != total {
		t.Errorf("receiver RcvNxt = %d, want %d", got, total)
	}
	if l.snd.Stats().SegsRetrans != 0 {
		t.Errorf("retransmissions on a clean path: %d", l.snd.Stats().SegsRetrans)
	}
}

func TestLoopSlowStartExponentialGrowth(t *testing.T) {
	l := buildLoop(loopOpts{cfg: Config{MSS: 1000}, owd: 30 * time.Millisecond})
	l.snd.Supply(100 << 20)
	// After a few RTTs of slow start with delayed ACKs the window should
	// have grown by roughly 1.5x per RTT from 2 segments.
	l.eng.RunUntil(sim.At(400 * time.Millisecond)) // ~6 RTTs
	cwndSegs := float64(l.snd.Cwnd()) / 1000
	if cwndSegs < 10 {
		t.Errorf("cwnd after ~6 RTTs = %.0f segments, want >= 10 (exponential)", cwndSegs)
	}
	if l.snd.Stats().SlowStartExits != 0 {
		t.Errorf("slow start exited on a clean path")
	}
}

func TestLoopRTTMeasurement(t *testing.T) {
	l := buildLoop(loopOpts{cfg: Config{MSS: 1000}, owd: 30 * time.Millisecond})
	l.snd.Supply(1 << 20)
	l.eng.RunUntil(sim.At(2 * time.Second))
	srtt := l.snd.SRTT()
	// RTT = 60 ms propagation + serialization + delack effects; delayed
	// ACKs can hold a sample up to 40 ms.
	if srtt < 55*time.Millisecond || srtt > 120*time.Millisecond {
		t.Errorf("SRTT = %v, want ~60-100ms", srtt)
	}
	if l.snd.Stats().MinRTT < 60*time.Millisecond {
		t.Errorf("MinRTT = %v below propagation floor", l.snd.Stats().MinRTT)
	}
}

func TestLoopDelayedAckRatio(t *testing.T) {
	l := buildLoop(loopOpts{cfg: Config{MSS: 1000}})
	const total = 1 << 20
	l.snd.Supply(total)
	l.snd.Close()
	l.eng.RunUntil(sim.At(30 * time.Second))
	// The path is lossless: every segment reaches the receiver and every
	// ACK the sender.
	segs := l.snd.Stats().DataSegsOut
	acks := l.snd.Stats().SegsIn
	if acks == 0 {
		t.Fatal("no acks")
	}
	ratio := float64(segs) / float64(acks)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("segments per ACK = %.2f, want ~2 (delayed ACKs)", ratio)
	}
}

func TestLoopRecoversFromPeriodicLoss(t *testing.T) {
	loss := &dropEvery{n: 97}
	l := buildLoop(loopOpts{
		cfg:     Config{MSS: 1000},
		fwdDrop: loss,
	})
	const total = 2 << 20
	done := false
	l.snd.cfg.OnComplete = func(*Sender) { done = true }
	l.snd.Supply(total)
	l.snd.Close()
	l.eng.RunUntil(sim.At(120 * time.Second))
	if !done {
		t.Fatalf("transfer did not complete; acked=%d stats=%+v",
			l.snd.Stats().ThruOctetsAcked, l.snd.Stats())
	}
	if l.rcv.RcvNxt() != total {
		t.Errorf("receiver got %d bytes, want %d", l.rcv.RcvNxt(), total)
	}
	st := l.snd.Stats()
	if st.FastRetran == 0 {
		t.Error("no fast retransmissions despite periodic loss")
	}
	if loss.dropped == 0 {
		t.Error("loss injector never dropped")
	}
}

func TestLoopRecoversFromHeavyRandomLoss(t *testing.T) {
	loss := &netem.Loss{P: 0.02, RNG: sim.NewRNG(7)}
	l := buildLoop(loopOpts{cfg: Config{MSS: 1000}, fwdLoss: loss})
	const total = 1 << 20
	done := false
	l.snd.cfg.OnComplete = func(*Sender) { done = true }
	l.snd.Supply(total)
	l.snd.Close()
	l.eng.RunUntil(sim.At(300 * time.Second))
	if !done {
		t.Fatalf("transfer did not complete under 2%% loss; acked=%d",
			l.snd.Stats().ThruOctetsAcked)
	}
	if l.rcv.RcvNxt() != total {
		t.Errorf("receiver got %d, want %d", l.rcv.RcvNxt(), total)
	}
}

func TestLoopSACKTransferUnderLoss(t *testing.T) {
	l := buildLoop(loopOpts{
		cfg:     Config{MSS: 1000, SACK: true},
		fwdDrop: &dropEvery{n: 113},
	})
	const total = 2 << 20
	done := false
	l.snd.cfg.OnComplete = func(*Sender) { done = true }
	l.snd.Supply(total)
	l.snd.Close()
	l.eng.RunUntil(sim.At(120 * time.Second))
	if !done {
		t.Fatal("SACK transfer did not complete")
	}
	if l.snd.Stats().SACKsRcvd == 0 {
		t.Error("no SACK blocks received despite losses")
	}
}

func TestLoopSACKAvoidsTimeoutsOnBurstLoss(t *testing.T) {
	// A slow-start overshoot into a small router buffer drops a large
	// chunk of one window. NewReno's one-hole-per-RTT repair tends to
	// fall back to the retransmission timer; SACK recovery repairs the
	// scoreboard within recovery and must need fewer (here: no) RTOs.
	run := func(sack bool) (time.Duration, int64) {
		l := buildLoop(loopOpts{
			cfg:        Config{MSS: 1000, SACK: sack},
			bottleneck: 50 * unit.Mbps,
			routerQLen: 30, // small buffer forces a multi-segment loss burst
			owd:        20 * time.Millisecond,
		})
		var done sim.Time = -1
		l.snd.cfg.OnComplete = func(*Sender) { done = l.eng.Now() }
		l.snd.Supply(3 << 20)
		l.snd.Close()
		l.eng.RunUntil(sim.At(300 * time.Second))
		if done < 0 {
			t.Fatalf("transfer (sack=%v) did not complete; stats=%+v", sack, l.snd.Stats())
		}
		if got := l.rcv.RcvNxt(); got != 3<<20 {
			t.Fatalf("receiver got %d, want %d", got, 3<<20)
		}
		return done.Duration(), l.snd.Stats().Timeouts
	}
	nrTime, nrRTO := run(false)
	saTime, saRTO := run(true)
	if saRTO >= nrRTO && nrRTO > 0 {
		t.Errorf("SACK used %d timeouts, NewReno %d; SACK should avoid RTO fallback", saRTO, nrRTO)
	}
	if saRTO != 0 {
		t.Errorf("SACK recovery fell back to %d timeouts", saRTO)
	}
	// Completion times stay in the same ballpark (NewReno can luck into
	// a fast go-back-N when the receiver cached the whole window).
	if saTime > 3*nrTime {
		t.Errorf("SACK completion %v far slower than NewReno %v", saTime, nrTime)
	}
}

func TestLoopBottleneckPacesThroughput(t *testing.T) {
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1448},
		bottleneck: 10 * unit.Mbps,
		routerQLen: 100,
		owd:        5 * time.Millisecond,
	})
	l.snd.Supply(100 << 20)
	runFor := 10 * time.Second
	l.eng.RunUntil(sim.At(runFor))
	st := l.snd.Snapshot(l.eng.Now())
	thr := st.Throughput(l.eng.Now())
	// Goodput should approach but never exceed the bottleneck.
	if thr > 10*unit.Mbps {
		t.Errorf("throughput %v exceeds bottleneck", thr)
	}
	if thr < 7*unit.Mbps {
		t.Errorf("throughput %v, want near 10Mbps", thr)
	}
}

func TestLoopSendStallPathologyOnSlowNIC(t *testing.T) {
	// NIC at path rate with a tiny IFQ: slow-start overshoot must fill
	// the IFQ and trigger the Linux 2.4 stall-collapse. This is the
	// pathology the paper is about.
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1448, Stall: StallCongestion},
		nicRate:    100 * unit.Mbps,
		txqueuelen: 100,
		owd:        30 * time.Millisecond,
	})
	l.snd.Supply(1 << 30)
	l.eng.RunUntil(sim.At(10 * time.Second))
	st := l.snd.Stats()
	if st.SendStall == 0 {
		t.Fatal("no send-stalls on a slow NIC with small IFQ")
	}
	if st.LocalCongCwnd == 0 {
		t.Error("stall did not collapse the window under StallCongestion")
	}
	if st.SegsRetrans != 0 {
		t.Errorf("stalls caused %d retransmissions; nothing was lost", st.SegsRetrans)
	}
	// The transfer keeps making progress after stalls.
	if st.ThruOctetsAcked < 10<<20 {
		t.Errorf("only %d bytes acked in 10s", st.ThruOctetsAcked)
	}
}

func TestLoopStallWaitAvoidsCollapse(t *testing.T) {
	build := func(policy StallPolicy) *loop {
		return buildLoop(loopOpts{
			cfg:        Config{MSS: 1448, Stall: policy},
			nicRate:    100 * unit.Mbps,
			txqueuelen: 100,
			owd:        30 * time.Millisecond,
		})
	}
	lWait := build(StallWait)
	lWait.snd.Supply(1 << 30)
	lWait.eng.RunUntil(sim.At(15 * time.Second))

	lCong := build(StallCongestion)
	lCong.snd.Supply(1 << 30)
	lCong.eng.RunUntil(sim.At(15 * time.Second))

	// The idealized StallWait sender must outperform the 2.4 behaviour:
	// that throughput gap is exactly what the paper recovers.
	wait := lWait.snd.Stats().ThruOctetsAcked
	cong := lCong.snd.Stats().ThruOctetsAcked
	if wait <= cong {
		t.Errorf("StallWait acked %d <= StallCongestion %d; expected a gap", wait, cong)
	}
}

func TestLoopFlightNeverExceedsWindows(t *testing.T) {
	l := buildLoop(loopOpts{cfg: Config{MSS: 1000, RcvWnd: 64000}})
	l.snd.Supply(10 << 20)
	ok := true
	tick := sim.NewTicker(l.eng, time.Millisecond, func() {
		if l.snd.FlightSize() > l.snd.Cwnd()+4000 && l.snd.FlightSize() > 64000+4000 {
			ok = false
		}
	})
	tick.Start()
	l.eng.RunUntil(sim.At(5 * time.Second))
	if !ok {
		t.Error("flight exceeded both cwnd and rwnd")
	}
}
