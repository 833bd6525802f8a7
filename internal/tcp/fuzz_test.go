package tcp

// Randomized whole-stack robustness tests: many seeds, hostile networks
// (loss, duplication, reordering, tiny buffers), every congestion-control
// configuration. The invariants checked are the ones that must survive any
// network behaviour:
//
//  1. integrity  — the receiver's in-order stream length never exceeds what
//     was supplied, and a completed transfer delivered exactly every byte;
//  2. liveness   — the connection keeps making progress (completes);
//  3. accounting — sender goodput equals receiver in-order progress.

import (
	"fmt"
	"testing"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/host"
	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

type hostileOpts struct {
	seed      uint64
	lossP     float64
	dupP      float64
	reorderP  float64
	sack      bool
	routerQ   int
	bandwidth unit.Bandwidth
	owd       time.Duration
	bytes     int64
}

func runHostile(t *testing.T, o hostileOpts) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(o.seed)

	cfg := Config{MSS: 1000, SACK: o.sack}
	var snd *Sender

	revWire := netem.NewWire(eng, o.owd, netem.Func(func(seg *packet.Segment) { snd.Receive(seg) }))
	rcv := NewReceiver(eng, cfg, 1, revWire)

	var fwd netem.Receiver = netem.NewWire(eng, o.owd, rcv)
	fwd = netem.NewLink(eng, o.bandwidth, 0, netem.NewDropTail(o.routerQ), fwd)
	if o.reorderP > 0 {
		fwd = netem.NewReorderer(eng, o.reorderP, 3*o.owd/2, rng.Split(), fwd)
	}
	if o.dupP > 0 {
		fwd = &netem.Duplicator{P: o.dupP, RNG: rng.Split(), Next: fwd}
	}
	if o.lossP > 0 {
		fwd = &netem.Loss{P: o.lossP, RNG: rng.Split(), Next: fwd}
	}
	nicIf := host.NewInterface(eng, host.InterfaceConfig{Rate: 1 * unit.Gbps, TxQueueLen: 1000}, fwd)
	snd = NewSender(eng, cfg, 1, cc.NewReno(cc.RenoConfig{IW: 2}), nicIf)

	done := false
	snd.cfg.OnComplete = func(*Sender) { done = true }
	snd.Supply(o.bytes)
	snd.Close()
	eng.RunUntil(sim.At(600 * time.Second))

	if rcv.RcvNxt() > o.bytes {
		t.Fatalf("seed %d: receiver advanced past supplied data: %d > %d",
			o.seed, rcv.RcvNxt(), o.bytes)
	}
	if !done {
		t.Fatalf("seed %d: transfer did not complete; acked=%d/%d stats=%+v",
			o.seed, snd.Stats().ThruOctetsAcked, o.bytes, snd.Stats())
	}
	if rcv.RcvNxt() != o.bytes {
		t.Fatalf("seed %d: completed but receiver has %d of %d bytes",
			o.seed, rcv.RcvNxt(), o.bytes)
	}
	if snd.Stats().ThruOctetsAcked != o.bytes {
		t.Fatalf("seed %d: goodput accounting %d != %d",
			o.seed, snd.Stats().ThruOctetsAcked, o.bytes)
	}
}

func TestFuzzLossyNetworkManySeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, sack := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/sack=%v", seed, sack)
			t.Run(name, func(t *testing.T) {
				runHostile(t, hostileOpts{
					seed:      seed,
					lossP:     0.01,
					sack:      sack,
					routerQ:   50,
					bandwidth: 20 * unit.Mbps,
					owd:       15 * time.Millisecond,
					bytes:     1 << 20,
				})
			})
		}
	}
}

func TestFuzzReorderingNetwork(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHostile(t, hostileOpts{
				seed:      seed,
				reorderP:  0.05,
				sack:      true,
				routerQ:   100,
				bandwidth: 20 * unit.Mbps,
				owd:       10 * time.Millisecond,
				bytes:     1 << 20,
			})
		})
	}
}

func TestFuzzDuplicationNetwork(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHostile(t, hostileOpts{
				seed:      seed,
				dupP:      0.05,
				routerQ:   100,
				bandwidth: 20 * unit.Mbps,
				owd:       10 * time.Millisecond,
				bytes:     1 << 20,
			})
		})
	}
}

func TestFuzzEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("hostile combination sweep is slow")
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, sack := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/sack=%v", seed, sack)
			t.Run(name, func(t *testing.T) {
				runHostile(t, hostileOpts{
					seed:      seed,
					lossP:     0.02,
					dupP:      0.02,
					reorderP:  0.02,
					sack:      sack,
					routerQ:   30,
					bandwidth: 10 * unit.Mbps,
					owd:       20 * time.Millisecond,
					bytes:     512 << 10,
				})
			})
		}
	}
}

func TestFuzzTinyRouterBuffer(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHostile(t, hostileOpts{
				seed:      seed,
				sack:      true,
				routerQ:   5, // pathologically shallow
				bandwidth: 10 * unit.Mbps,
				owd:       10 * time.Millisecond,
				bytes:     512 << 10,
			})
		})
	}
}
