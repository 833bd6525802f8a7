package tcp

import (
	"testing"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// TestAllocBudgetSenderLoop locks in the allocation-free steady state of
// the full ACK-clocked transfer loop: sender, NIC, bottleneck link, receiver
// and both wires. After warm-up (pool filled, record slices at capacity),
// advancing the simulation must not allocate per event.
func TestAllocBudgetSenderLoop(t *testing.T) {
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1448},
		nicRate:    100 * unit.Mbps,
		txqueuelen: 100,
		owd:        10 * time.Millisecond,
	})
	l.snd.Supply(1 << 30)
	// Warm up: slow-start, pool growth, slice growth all happen here.
	l.eng.RunUntil(sim.At(2 * time.Second))

	before := l.eng.Processed()
	avg := testing.AllocsPerRun(20, func() {
		l.eng.RunFor(50 * time.Millisecond)
	})
	events := float64(l.eng.Processed()-before) / 21 // AllocsPerRun does a priming run
	if events < 100 {
		t.Fatalf("too few events per window (%.0f) for the budget to mean anything", events)
	}
	// Budget: the steady-state loop is allocation-free. A small absolute
	// slack absorbs one-off growth (an RTT sample table, a heap doubling).
	if avg > 2 {
		t.Errorf("sender loop allocates %.2f/50ms-window (%.0f events), want <= 2", avg, events)
	}
}

// TestAllocBudgetSACKRecoveryLoop bounds the loss-recovery slow path: SACK
// scoreboard maintenance and hole repairs must stay within a small
// per-window budget (in-place block merges, pooled retransmissions).
func TestAllocBudgetSACKRecoveryLoop(t *testing.T) {
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1448, SACK: true},
		bottleneck: 50 * unit.Mbps,
		routerQLen: 50,
		owd:        10 * time.Millisecond,
	})
	l.snd.Supply(1 << 30)
	l.eng.RunUntil(sim.At(2 * time.Second))

	avg := testing.AllocsPerRun(20, func() {
		l.eng.RunFor(50 * time.Millisecond)
	})
	if avg > 8 {
		t.Errorf("SACK recovery loop allocates %.2f/50ms-window, want <= 8", avg)
	}
}

// TestAllocBudgetWithFlightRecorder re-runs the steady-state budget with a
// flight recorder attached to both the sender and its controller, pinning
// the telemetry tentpole's zero-overhead invariant: recording congestion
// events must not add a single allocation to the event loop. The ring is
// filled to capacity before the measured windows: it allocates only while it
// grows, and every long run's recorder ends up full.
func TestAllocBudgetWithFlightRecorder(t *testing.T) {
	fr := telemetry.NewFlightRecorder(0)
	ctrl := cc.NewReno(cc.RenoConfig{IW: 2, FR: fr})
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1448},
		nicRate:    100 * unit.Mbps,
		txqueuelen: 100,
		owd:        10 * time.Millisecond,
		ctrl:       ctrl,
	})
	l.snd.cfg.FR = fr
	l.snd.Supply(1 << 30)
	l.eng.RunUntil(sim.At(2 * time.Second))
	for fr.Len() < fr.Cap() {
		fr.Record(l.eng.Now(), telemetry.KindCwnd, 0, -1, 0, 0)
	}

	before, recorded := l.eng.Processed(), fr.Total()
	avg := testing.AllocsPerRun(20, func() {
		l.eng.RunFor(50 * time.Millisecond)
	})
	events := float64(l.eng.Processed()-before) / 21
	if events < 100 {
		t.Fatalf("too few events per window (%.0f) for the budget to mean anything", events)
	}
	if avg > 2 {
		t.Errorf("recorder-enabled loop allocates %.2f/50ms-window (%.0f events), want <= 2", avg, events)
	}
	if fr.Total() == recorded {
		t.Error("flight recorder saw no events in the measured windows — the budget proved nothing")
	}
}

// TestRTOCancellationBounded drives the arm/cancel churn a loss-free
// transfer produces (every ACK re-arms the RTO) and checks the calendar
// reclaims canceled deadlines: the pool must stay small and nothing leaks.
func TestRTOCancellationBounded(t *testing.T) {
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1448},
		nicRate:    100 * unit.Mbps,
		txqueuelen: 100,
		owd:        10 * time.Millisecond,
	})
	l.snd.Supply(1 << 30)
	l.eng.RunUntil(sim.At(10 * time.Second))

	if got := l.eng.Leaked(); got != 0 {
		t.Errorf("leaked %d pooled events", got)
	}
	ps := l.eng.PoolStats()
	if ps.Created > uint64(l.eng.Pending())+1024 {
		t.Errorf("event pool grew to %d entries for %d pending — canceled events not reclaimed",
			ps.Created, l.eng.Pending())
	}
	if ps.Reused < 10*ps.Created {
		t.Errorf("pool reuse %d vs created %d: recycling is not happening", ps.Reused, ps.Created)
	}
}
