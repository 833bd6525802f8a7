package tcp

import (
	"testing"
	"time"
	"unsafe"

	"rsstcp/internal/cc"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

// fakePath captures transmissions and can simulate send-stalls.
type fakePath struct {
	sent     []*packet.Segment
	failNext int
	stalls   int
	waker    func()
}

func (p *fakePath) Send(seg *packet.Segment) bool {
	if p.failNext > 0 {
		p.failNext--
		p.stalls++
		return false
	}
	p.sent = append(p.sent, seg)
	return true
}

func (p *fakePath) SetWaker(fn func()) { p.waker = fn }

func (p *fakePath) wake() {
	if p.waker != nil {
		w := p.waker
		p.waker = nil
		w()
	}
}

func newTestSender(eng *sim.Engine, cfg Config) (*Sender, *fakePath) {
	path := &fakePath{}
	s := NewSender(eng, cfg, 1, cc.NewReno(cc.RenoConfig{IW: 2}), path)
	return s, path
}

// ackUpTo delivers a cumulative ACK to the sender.
func ackUpTo(s *Sender, ack int64) {
	s.Receive(&packet.Segment{Flags: packet.FlagACK, Ack: ack, Wnd: 4 << 20})
}

func dupAck(s *Sender, ack int64) { ackUpTo(s, ack) }

func TestSenderInitialWindowLimitsBurst(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(100000)
	// IW = 2 segments.
	if len(path.sent) != 2 {
		t.Fatalf("initial burst = %d segments, want 2", len(path.sent))
	}
	if path.sent[0].Seq != 0 || path.sent[1].Seq != 1000 {
		t.Errorf("sequences = %d,%d want 0,1000", path.sent[0].Seq, path.sent[1].Seq)
	}
	if s.FlightSize() != 2000 {
		t.Errorf("FlightSize = %d, want 2000", s.FlightSize())
	}
}

func TestSenderAckAdvancesAndGrows(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	eng.RunFor(10 * time.Millisecond)
	ackUpTo(s, 2000)
	// Slow start: cwnd 2000 -> 3000; una 2000 -> can send 3 more segments.
	if s.Cwnd() != 3000 {
		t.Errorf("cwnd = %d, want 3000", s.Cwnd())
	}
	if s.SndUna() != 2000 {
		t.Errorf("SndUna = %d, want 2000", s.SndUna())
	}
	if len(path.sent) != 5 {
		t.Errorf("sent = %d segments, want 5", len(path.sent))
	}
	if s.Stats().ThruOctetsAcked != 2000 {
		t.Errorf("ThruOctetsAcked = %d, want 2000", s.Stats().ThruOctetsAcked)
	}
}

func TestSenderRespectsRwnd(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	// Ack with a tiny advertised window.
	s.Receive(&packet.Segment{Flags: packet.FlagACK, Ack: 2000, Wnd: 3000})
	// cwnd is 3000 after the ack but rwnd clamps flight to 3000.
	for len(path.sent) > 0 && path.sent[len(path.sent)-1].Seq < 5000 {
		break
	}
	if s.FlightSize() > 3000 {
		t.Errorf("FlightSize = %d exceeds rwnd 3000", s.FlightSize())
	}
}

func TestSenderShortFinalSegment(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1500) // one full + one half segment
	if len(path.sent) != 2 {
		t.Fatalf("sent %d segments, want 2", len(path.sent))
	}
	if path.sent[1].Len != 500 {
		t.Errorf("tail segment len = %d, want 500", path.sent[1].Len)
	}
}

func TestSenderCompletionCallback(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000})
	done := false
	s.cfg.OnComplete = func(*Sender) { done = true }
	s.Supply(2000)
	s.Close()
	if done {
		t.Fatal("completed before data acked")
	}
	eng.RunFor(10 * time.Millisecond)
	ackUpTo(s, 2000)
	if !done || !s.Finished() {
		t.Error("transfer did not complete after final ack")
	}
	if s.Stats().EndTime == 0 {
		t.Error("stats EndTime not set")
	}
}

func TestSenderIgnoresTrafficAfterFinish(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1000)
	s.Close()
	ackUpTo(s, 1000)
	before := s.Stats().SegsIn
	ackUpTo(s, 1000)
	if s.Stats().SegsIn != before {
		t.Error("finished sender still counts segments")
	}
}

func TestSenderFastRetransmitOnTripleDup(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	// Grow the window a little so there is plenty outstanding.
	ackUpTo(s, 1000)
	ackUpTo(s, 2000)
	sentBefore := len(path.sent)
	// Three duplicate ACKs at una=2000.
	dupAck(s, 2000)
	dupAck(s, 2000)
	if s.InRecovery() {
		t.Fatal("entered recovery before third dup ack")
	}
	dupAck(s, 2000)
	if !s.InRecovery() {
		t.Fatal("not in recovery after third dup ack")
	}
	st := s.Stats()
	if st.FastRetran != 1 || st.CongSignals != 1 {
		t.Errorf("FastRetran=%d CongSignals=%d, want 1/1", st.FastRetran, st.CongSignals)
	}
	// The retransmission is the segment at una.
	var rtx *packet.Segment
	for _, seg := range path.sent[sentBefore:] {
		if seg.Retransmit {
			rtx = seg
			break
		}
	}
	if rtx == nil {
		t.Fatal("no retransmission emitted")
	}
	if rtx.Seq != 2000 {
		t.Errorf("retransmit seq = %d, want 2000 (snd.una)", rtx.Seq)
	}
	if st.DupAcksIn != 3 {
		t.Errorf("DupAcksIn = %d, want 3", st.DupAcksIn)
	}
}

func TestSenderFullAckExitsRecovery(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	ackUpTo(s, 2000)
	recover := s.SndNxt()
	dupAck(s, 2000)
	dupAck(s, 2000)
	dupAck(s, 2000)
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	ackUpTo(s, recover) // full ACK: everything sent before loss is covered
	if s.InRecovery() {
		t.Error("recovery did not end on full ack")
	}
	if s.Cwnd() != s.Ssthresh() {
		t.Errorf("cwnd = %d, want deflated to ssthresh %d", s.Cwnd(), s.Ssthresh())
	}
}

func TestSenderPartialAckRetransmits(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	// Build up a larger flight.
	ackUpTo(s, 2000)
	ackUpTo(s, 4000)
	ackUpTo(s, 6000)
	recover := s.SndNxt()
	dupAck(s, 6000)
	dupAck(s, 6000)
	dupAck(s, 6000)
	// Partial ACK: advances but not past the recovery point.
	ackUpTo(s, 8000)
	if s.SndNxt() < recover {
		t.Fatal("test setup: recovery point not beyond partial ack")
	}
	if !s.InRecovery() {
		t.Error("partial ack ended recovery prematurely")
	}
	// A second retransmission (the next hole at 8000) must have gone out.
	found := false
	for _, seg := range path.sent {
		if seg.Retransmit && seg.Seq == 8000 {
			found = true
		}
	}
	if !found {
		t.Error("partial ack did not trigger retransmission of next hole")
	}
}

func TestSenderRTOCollapsesAndRetransmits(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	if s.FlightSize() == 0 {
		t.Fatal("nothing outstanding")
	}
	// No ACKs arrive; the retransmission timer must fire.
	eng.RunFor(5 * time.Second)
	st := s.Stats()
	if st.Timeouts == 0 {
		t.Fatal("no RTO fired")
	}
	if s.Cwnd() != 1000 {
		t.Errorf("cwnd after RTO = %d, want 1 MSS", s.Cwnd())
	}
	// First segment resent with the retransmit mark.
	foundRtx := false
	for _, seg := range path.sent {
		if seg.Retransmit && seg.Seq == 0 {
			foundRtx = true
		}
	}
	if !foundRtx {
		t.Error("RTO did not retransmit from snd.una")
	}
	if st.SegsRetrans == 0 {
		t.Error("SegsRetrans not counted")
	}
}

func TestSenderRTOBackoffOnRepeat(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000, InitialRTO: time.Second})
	s.Supply(5000)
	eng.RunFor(10 * time.Second)
	st := s.Stats()
	if st.Timeouts < 2 {
		t.Fatalf("timeouts = %d, want >= 2", st.Timeouts)
	}
	// Exponential backoff: RTO grew beyond the initial value.
	if s.RTO() <= time.Second {
		t.Errorf("RTO = %v, want backed off beyond 1s", s.RTO())
	}
}

func TestSenderKarnExcludesRetransmitsFromRTT(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000, InitialRTO: 500 * time.Millisecond})
	s.Supply(1000)
	// Let the RTO fire once: the segment is now a retransmission.
	eng.RunFor(time.Second)
	if s.Stats().Timeouts == 0 {
		t.Fatal("expected an RTO")
	}
	countBefore := s.Stats().CountRTT
	ackUpTo(s, 1000)
	if s.Stats().CountRTT != countBefore {
		t.Error("RTT sampled from a retransmitted segment (Karn violation)")
	}
}

func TestSenderStallRaisesSignalAndCollapses(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000, Stall: StallCongestion})
	// Grow first so the collapse is visible.
	s.Supply(1 << 20)
	ackUpTo(s, 2000)
	ackUpTo(s, 4000)
	cwndBefore := s.Cwnd()
	stalls := 0
	s.cfg.OnStall = func(snd *Sender) {
		if snd != s {
			t.Errorf("stall hook got sender %p, want %p", snd, s)
		}
		stalls++
	}
	path.failNext = 1
	ackUpTo(s, 6000) // triggers trySend, which hits the stall
	st := s.Stats()
	if st.SendStall != 1 || stalls != 1 {
		t.Fatalf("SendStall = %d hook=%d, want 1/1", st.SendStall, stalls)
	}
	if st.LocalCongCwnd != 1 {
		t.Errorf("LocalCongCwnd = %d, want 1", st.LocalCongCwnd)
	}
	if s.Cwnd() >= cwndBefore {
		t.Errorf("cwnd = %d, want collapsed below %d", s.Cwnd(), cwndBefore)
	}
}

func TestSenderStallWaitPolicyKeepsWindow(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000, Stall: StallWait})
	s.Supply(1 << 20)
	ackUpTo(s, 2000)
	cwndBefore := s.Cwnd()
	path.failNext = 1
	ackUpTo(s, 4000)
	if s.Stats().SendStall != 1 {
		t.Fatalf("SendStall = %d, want 1", s.Stats().SendStall)
	}
	if s.Stats().LocalCongCwnd != 0 {
		t.Errorf("LocalCongCwnd = %d, want 0 under StallWait", s.Stats().LocalCongCwnd)
	}
	if s.Cwnd() < cwndBefore {
		t.Errorf("cwnd = %d collapsed under StallWait", s.Cwnd())
	}
}

func TestSenderStallResumesViaWaker(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000, Stall: StallWait})
	s.Supply(5000)
	path.failNext = 1
	ackUpTo(s, 2000)
	sentBefore := len(path.sent)
	path.wake()
	if len(path.sent) <= sentBefore {
		t.Error("waker did not resume transmission")
	}
}

func TestSenderStallCongestionOncePerWindow(t *testing.T) {
	eng := sim.NewEngine()
	s, path := newTestSender(eng, Config{MSS: 1000, Stall: StallCongestion})
	s.Supply(1 << 20)
	ackUpTo(s, 2000)
	ackUpTo(s, 4000) // cwnd 4000, flight 4000..8000 outstanding
	path.failNext = 1
	ackUpTo(s, 5000) // frees room; the attempted send stalls and collapses
	if s.Stats().LocalCongCwnd != 1 {
		t.Fatalf("LocalCongCwnd = %d, want 1", s.Stats().LocalCongCwnd)
	}
	// Ack most (not all) of the flight: room opens under the collapsed
	// cwnd, but snd.una is still below the stall high-water mark.
	path.failNext = 1
	ackUpTo(s, 7000)
	if s.Stats().SendStall != 2 {
		t.Fatalf("SendStall = %d, want 2", s.Stats().SendStall)
	}
	if s.Stats().LocalCongCwnd != 1 {
		t.Errorf("LocalCongCwnd = %d, want still 1 (suppressed within window)",
			s.Stats().LocalCongCwnd)
	}
	// Once the whole pre-stall flight is acknowledged, a new stall may
	// collapse the window again.
	ackUpTo(s, 8000)
	path.failNext = 1
	ackUpTo(s, 9000)
	if s.Stats().LocalCongCwnd != 2 {
		t.Errorf("LocalCongCwnd = %d, want 2 after window passed", s.Stats().LocalCongCwnd)
	}
}

func TestSenderDupAckRequiresOutstandingData(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1000)
	ackUpTo(s, 1000) // everything acked
	dupAck(s, 1000)
	dupAck(s, 1000)
	dupAck(s, 1000)
	if s.InRecovery() {
		t.Error("entered recovery with no outstanding data")
	}
}

func TestSenderWindowGauges(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000})
	s.Supply(1 << 20)
	ackUpTo(s, 2000)
	st := s.Snapshot(eng.Now())
	if st.CurCwnd != s.Cwnd() {
		t.Errorf("CurCwnd = %d, want %d", st.CurCwnd, s.Cwnd())
	}
	if st.MaxCwnd < st.CurCwnd {
		t.Errorf("MaxCwnd = %d below CurCwnd %d", st.MaxCwnd, st.CurCwnd)
	}
}

func TestSenderSetCwndClampsToMSS(t *testing.T) {
	eng := sim.NewEngine()
	s, _ := newTestSender(eng, Config{MSS: 1000})
	s.SetCwnd(10)
	if s.Cwnd() != 1000 {
		t.Errorf("cwnd = %d, want clamped to 1 MSS", s.Cwnd())
	}
	s.SetSsthresh(10)
	if s.Ssthresh() != 2000 {
		t.Errorf("ssthresh = %d, want clamped to 2 MSS", s.Ssthresh())
	}
}

func TestSenderPanicsOnNilDeps(t *testing.T) {
	eng := sim.NewEngine()
	for name, fn := range map[string]func(){
		"nil controller": func() { NewSender(eng, Config{}, 1, nil, &fakePath{}) },
		"nil path":       func() { NewSender(eng, Config{}, 1, cc.NewReno(cc.RenoConfig{}), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// sinkPath accepts every segment and hands it straight back to its pool.
type sinkPath struct{}

func (sinkPath) Send(seg *packet.Segment) bool { seg.Release(); return true }
func (sinkPath) SetWaker(func())               {}

// TestSenderRecordListFollowsWindow: a sender held to a two-segment window
// keeps a record list sized for it through any number of ACKs, and an ACK
// round allocates nothing. Reclaiming the dead prefix only past 64 records
// grew the list to 128 records (4 KiB) for the same connection.
func TestSenderRecordListFollowsWindow(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSender(eng, Config{MSS: 1000, RcvWnd: 2000}, 1, cc.NewReno(cc.RenoConfig{IW: 2}), sinkPath{})
	s.Supply(1 << 40)
	var ack packet.Segment
	round := func() {
		// One segment acknowledged, one sent: the list never empties, so
		// only the slide can give the dead prefix back.
		ack = packet.Segment{Flags: packet.FlagACK, Ack: s.SndUna() + 1000, Wnd: 2000}
		s.Receive(&ack)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	if s.FlightSize() != 2000 {
		t.Fatalf("flight %d bytes, want the two-segment window", s.FlightSize())
	}
	if c := s.RecordCap(); c > 8 {
		t.Errorf("record list capacity %d after 1000 ACK rounds at window 2, want ≤ 8", c)
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("a warm ACK round allocates %.1f objects, want 0", allocs)
	}
	// The other rule: the ACK that empties the list rewinds it.
	ack = packet.Segment{Flags: packet.FlagACK, Ack: s.SndNxt(), Wnd: 0}
	s.Receive(&ack)
	if head := s.segHead; head != 0 || len(s.segs) != 0 {
		t.Errorf("fully acknowledged list sits at head=%d len=%d, want 0/0", head, len(s.segs))
	}
}

// TestSenderDeepWindowGrowsWithoutSliding: with over a thousand records in
// flight and a dead prefix shorter than the window, a full record list grows
// and the live records stay where they are — the head*2 >= len guard is what
// keeps the paper path from copying its whole flight on every append.
func TestSenderDeepWindowGrowsWithoutSliding(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSender(eng, Config{MSS: 1000}, 1, cc.NewReno(cc.RenoConfig{IW: 1200}), sinkPath{})
	s.Supply(1 << 40)
	// Each send opportunity releases at most maxBurst segments; repeat
	// them until the 1200-segment initial window is in flight.
	for i := 0; i < 1200/maxBurst; i++ {
		s.trySend()
	}
	if n := len(s.live()); n < 1000 {
		t.Fatalf("%d records in flight, want ≥ 1000", n)
	}
	grewBehindHead := 0
	for acks := 1; acks <= 600; acks++ {
		before := cap(s.segs)
		ackUpTo(s, s.SndUna()+1000)
		// Slow start sends two segments per ACK, so the dead prefix (one
		// more record per ACK) stays shorter than the live window.
		if head := int(s.segHead); head != acks {
			t.Fatalf("after %d ACKs the head is at %d: the live window was moved", acks, head)
		}
		if cap(s.segs) > before {
			grewBehindHead++
		}
	}
	if grewBehindHead == 0 {
		t.Fatal("the record list never filled up behind a dead prefix: the guard was not exercised")
	}
}

// TestSentRecordSize pins the record list's element at 24 bytes: a 32-bit
// length with the three flags packed after it. With an int length it was 32,
// and the lists are a sizeable share of a many-flows run's per-flow heap.
func TestSentRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(sentRecord{}); got != 24 {
		t.Errorf("sentRecord is %d B, want 24", got)
	}
}

type nullPath struct{}

func (nullPath) Send(seg *packet.Segment) bool { seg.Release(); return true }
func (nullPath) SetWaker(func())               {}

// TestSenderRetire: a retired sender's window and sequence accessors and its
// snapshot's window gauges go quiet, Retire panics on a running sender, and
// Init makes a retired sender a new connection again.
func TestSenderRetire(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	s := NewSender(eng, cfg, 1, cc.NewReno(cc.RenoConfig{}), nullPath{})
	s.Supply(1000)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Retire on a running sender did not panic")
			}
		}()
		s.Retire()
	}()
	if s.SndNxt() == 0 || s.Cwnd() == 0 {
		t.Fatalf("running sender reports snd.nxt=%d cwnd=%d", s.SndNxt(), s.Cwnd())
	}
	s.Stop()
	s.Retire()
	s.Retire() // idempotent
	st := s.Snapshot(eng.Now())
	if s.Cwnd() != 0 || s.Ssthresh() != 0 || s.FlightSize() != 0 || s.SndUna() != 0 || s.SndNxt() != 0 ||
		st.CurCwnd != 0 || st.CurSsthresh != 0 || st.CurRwnd != 0 {
		t.Fatalf("retired sender still reports cwnd=%d ssthresh=%d flight=%d una=%d nxt=%d snapshot %d/%d/%d",
			s.Cwnd(), s.Ssthresh(), s.FlightSize(), s.SndUna(), s.SndNxt(), st.CurCwnd, st.CurSsthresh, st.CurRwnd)
	}
	s.Init(s.cfg, 2, 1, cc.NewReno(cc.RenoConfig{}), nullPath{})
	if s.Cwnd() == 0 || s.Ssthresh() == 0 {
		t.Fatalf("re-initialized sender reports cwnd=%d ssthresh=%d", s.Cwnd(), s.Ssthresh())
	}
}
