package cc

// StdSlowStart is the classic RFC 5681 rule: the window opens by one MSS
// per ACK received (so ~1.5x per RTT with delayed ACKs, 2x without).
// With ABC (RFC 3465) enabled it opens by the bytes acknowledged instead,
// capped at L=2 MSS per ACK, which restores 2x growth under delayed ACKs.
type StdSlowStart struct {
	// ABC enables appropriate byte counting with L=2.
	ABC bool
}

// Name identifies the policy.
func (s StdSlowStart) Name() string {
	if s.ABC {
		return "standard+abc"
	}
	return "standard"
}

// Reset is a no-op; standard slow start is stateless.
func (s StdSlowStart) Reset(Window) {}

// Advance returns one MSS per ACK, or with ABC min(acked, 2*MSS).
func (s StdSlowStart) Advance(w Window, acked int64) int64 {
	mss := int64(w.MSS())
	if !s.ABC {
		return mss
	}
	inc := acked
	if inc > 2*mss {
		inc = 2 * mss
	}
	return inc
}

// LimitedSlowStart implements RFC 3742: up to max_ssthresh, the 100
// segments RFC 3742 suggests, the window grows one MSS per ACK as usual;
// above it growth is limited to at most max_ssthresh/2 per RTT, making very
// large windows ramp linearly rather than exponentially. It is the
// standards-track alternative the paper's scheme is naturally compared with.
type LimitedSlowStart struct{}

// Name identifies the policy.
func (l LimitedSlowStart) Name() string { return "limited" }

// Reset is a no-op; limited slow start is stateless.
func (l LimitedSlowStart) Reset(Window) {}

// Advance applies the RFC 3742 increment:
//
//	if cwnd <= max_ssthresh:  cwnd += MSS per ACK
//	else: K = ceil(cwnd / (0.5 max_ssthresh)); cwnd += MSS/K per ACK
func (l LimitedSlowStart) Advance(w Window, acked int64) int64 {
	mss := int64(w.MSS())
	maxSsthresh := 100 * mss
	cwnd := w.Cwnd()
	if cwnd <= maxSsthresh {
		return mss
	}
	k := (2*cwnd + maxSsthresh - 1) / maxSsthresh // ceil(cwnd / (maxSsthresh/2))
	inc := mss / k
	if inc < 1 {
		inc = 1
	}
	return inc
}
