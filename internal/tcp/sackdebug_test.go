package tcp

import (
	"testing"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

func TestDebugSACKBurstLoss(t *testing.T) {
	l := buildLoop(loopOpts{
		cfg:        Config{MSS: 1000, SACK: true},
		bottleneck: 50 * unit.Mbps,
		routerQLen: 30,
		owd:        20 * time.Millisecond,
	})
	l.snd.Supply(3 << 20)
	l.snd.Close()
	var lastTO, lastFR int64
	tick := sim.NewTicker(l.eng, 20*time.Millisecond, func() {
		st := l.snd.Stats()
		if st.Timeouts != lastTO || st.FastRetran != lastFR || l.snd.InRecovery() {
			t.Logf("t=%6.3fs una=%5d nxt=%5d maxSent=%5d cwnd=%4.0f pipe=%5d fack=%5d rec=%v rtx=%4d to=%d dup=%d rcvNxt=%d",
				l.eng.Now().Seconds(), l.snd.SndUna()/1000, l.snd.SndNxt()/1000,
				l.snd.row().maxSent/1000, float64(l.snd.Cwnd())/1000, l.snd.pipe()/1000,
				l.snd.row().fack/1000, l.snd.InRecovery(), st.SegsRetrans, st.Timeouts,
				st.DupAcksIn, l.rcv.RcvNxt()/1000)
			lastTO, lastFR = st.Timeouts, st.FastRetran
		}
	})
	tick.Start()
	l.eng.RunUntil(sim.At(8 * time.Second))
	t.Logf("final: acked=%d finished=%v", l.snd.Stats().ThruOctetsAcked, l.snd.Finished())
}
