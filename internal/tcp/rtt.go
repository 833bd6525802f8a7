package tcp

import "time"

// rttEstimator implements RFC 6298 retransmission-timeout computation:
// SRTT/RTTVAR exponential averages, clock-granularity floor, exponential
// backoff, and min/max clamps (Linux uses a 200 ms floor, far below the
// RFC's 1 s, and that is what the paper's kernel did). The floor, the clamps
// and the granularity are connection parameters: Update and Backoff read
// them from the Config the sender shares, so the estimator holds only the
// per-connection state.
type rttEstimator struct {
	srtt   time.Duration // 0 until the first sample, positive after
	rttvar time.Duration
	rto    time.Duration
}

// Update folds a new RTT measurement in (RFC 6298 §2) and recomputes the
// RTO, clearing any backoff.
func (e *rttEstimator) Update(sample time.Duration, c *Config) {
	if sample <= 0 {
		sample = c.RTOGranularity
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		// RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R'|
		d := e.srtt - sample
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		// SRTT <- 7/8 SRTT + 1/8 R'
		e.srtt = (7*e.srtt + sample) / 8
	}
	e.rto = max(min(e.srtt+max(c.RTOGranularity, 4*e.rttvar), c.MaxRTO), c.MinRTO)
}

// Backoff doubles the RTO after a retransmission timeout (Karn).
func (e *rttEstimator) Backoff(c *Config) {
	e.rto = max(min(e.rto*2, c.MaxRTO), c.MinRTO)
}

// RTO returns the current retransmission timeout.
func (e *rttEstimator) RTO() time.Duration { return e.rto }

// SRTT returns the smoothed RTT (0 before the first sample).
func (e *rttEstimator) SRTT() time.Duration { return e.srtt }

// RTTVar returns the RTT variance estimate.
func (e *rttEstimator) RTTVar() time.Duration { return e.rttvar }

// HasSample reports whether at least one measurement was folded in.
func (e *rttEstimator) HasSample() bool { return e.srtt != 0 }
