package netem_test

import (
	"fmt"
	"testing"
	"time"

	"rsstcp/internal/host"
	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// stage is one transmission stage under test: how segments are offered to
// it, its port, and any counters of its own that must agree with the port's.
type stage struct {
	offer func(*packet.Segment)
	port  *netem.Port
	agree func() error
}

// TestStageConservation drives every kind of transmission stage — a NIC, a
// Link, a drop-tail hop and a RED hop — past its capacity and checks, after
// every engine event, that each segment offered is sent, dropped, queued or
// on the serializer, and that the queue accepted or refused every one.
func TestStageConservation(t *testing.T) {
	const rate = 100 * unit.Mbps // 120 µs per 1500-B segment
	hop := func(spec netem.HopSpec) func(*sim.Engine, netem.Receiver) stage {
		return func(eng *sim.Engine, sink netem.Receiver) stage {
			a := netem.NewHopArena(eng)
			a.Configure([]netem.HopSpec{spec}, sink, nil)
			return stage{offer: func(seg *packet.Segment) { a.Receive(0, seg) }, port: a.Port(0)}
		}
	}
	red := netem.DefaultREDConfig(10)
	for _, tc := range []struct {
		name  string
		build func(*sim.Engine, netem.Receiver) stage
	}{
		{"nic", func(eng *sim.Engine, sink netem.Receiver) stage {
			nic := host.NewInterface(eng, host.InterfaceConfig{Rate: rate, TxQueueLen: 10}, sink)
			// A refused Send is a send-stall; the caller keeps the segment.
			return stage{offer: func(seg *packet.Segment) { nic.Send(seg) }, port: &nic.Port, agree: func() error {
				if st, q := nic.Stats(), nic.QueueStats(); st.Stalls != q.Dropped || st.MaxQueue != q.MaxLen {
					return fmt.Errorf("NIC stalls %d, max queue %d; IFQ dropped %d, max len %d", st.Stalls, st.MaxQueue, q.Dropped, q.MaxLen)
				}
				return nil
			}}
		}},
		{"link", func(eng *sim.Engine, sink netem.Receiver) stage {
			l := netem.NewLink(eng, rate, time.Millisecond, netem.NewDropTail(10), sink)
			return stage{offer: l.Receive, port: &l.Port}
		}},
		{"droptail_hop", hop(netem.HopSpec{Rate: rate, Delay: time.Millisecond, Queue: 10})},
		{"red_hop", hop(netem.HopSpec{Rate: rate, Delay: time.Millisecond, Queue: 10, RED: &red, REDSeed: 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			st := tc.build(eng, &netem.Sink{})
			p := st.port
			var offered int64
			check := func(when string) {
				t.Helper()
				tx, q := p.Stats(), p.QueueStats()
				inService := int64(0)
				if p.InService() {
					inService = 1
				}
				if got := tx.Sent + q.Dropped + int64(p.Len()) + inService; got != offered {
					t.Fatalf("%s: sent %d + dropped %d + queued %d + in service %d = %d, want %d offered",
						when, tx.Sent, q.Dropped, p.Len(), inService, got, offered)
				}
				if q.Enqueued+q.Dropped != offered {
					t.Fatalf("%s: queue accepted %d and refused %d of %d offered", when, q.Enqueued, q.Dropped, offered)
				}
				if st.agree != nil {
					if err := st.agree(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
			}
			// A 30-segment burst, then one arrival every 50 µs: more than
			// twice what the serializer drains.
			var feed func()
			feed = func() {
				n := 1
				if offered == 0 {
					n = 30
				}
				for range n {
					offered++
					st.offer(&packet.Segment{Flow: 1, Len: 1460})
				}
				if offered < 300 {
					eng.ScheduleAfter(50*time.Microsecond, feed)
				}
			}
			eng.Schedule(0, feed)
			for i := 0; eng.Step(); i++ {
				check(fmt.Sprintf("event %d at %v", i, eng.Now()))
			}
			if p.QueueStats().Dropped == 0 {
				t.Fatal("overload dropped nothing; the test exercised no refusal")
			}
			if !p.Idle() {
				t.Errorf("drained stage still holds %d queued, in service %v", p.Len(), p.InService())
			}
		})
	}
}
