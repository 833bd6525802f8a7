// Package core implements the paper's contribution: Restricted Slow-Start
// (RSS), a sender-side modification of TCP slow-start in which a PID
// controller paces congestion-window growth off the host's network
// interface queue (IFQ) occupancy.
//
// Per Section 3 of the paper: the process variable is the current IFQ
// length, the set point is 90% of the maximum IFQ size, and the controller
// output determines how fast the sender window may grow. The controller
// gains come from Ziegler-Nichols closed-loop tuning (internal/zntune) with
// the paper's constants Kp = 0.33 Kc, Ti = 0.5 Tc, Td = 0.33 Tc.
//
// RSS plugs into the standard Reno machinery as a cc.SlowStartPolicy: only
// the slow-start phase changes; congestion avoidance and loss recovery are
// untouched ("a simple sender side alteration to the TCP congestion window
// update algorithm").
package core

import (
	"fmt"
	"slices"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/pid"
	"rsstcp/internal/sim"
)

// QueueSensor exposes the IFQ occupancy the controller observes.
// host.Interface implements it.
type QueueSensor interface {
	// Len returns the current queue occupancy in packets.
	Len() int
	// Capacity returns the maximum queue size in packets.
	Capacity() int
}

// DefaultCritical is the Ziegler-Nichols critical point every restricted
// flow without explicit gains is tuned from (PaperGains of it), for the
// paper's path (100 Mbps, 60 ms RTT, IFQ 100). It is a fixed constant that
// nothing re-derives: cmd/rsstcp-tune on that path does not reproduce it
// (its default 30 s probes give Kc ≈ 2849, Tc ≈ 1.34 s, and the critical
// point moves with the probe length), and which value is right is ROADMAP
// item 9. The controller output is a growth rate in segments/second, so Kc
// is large.
var DefaultCritical = pid.Critical{Kc: 2340, Tc: 870 * time.Millisecond}

// allowanceCapSegments bounds the accumulated unspent growth budget: one
// tick's worth at the default output clamp.
const allowanceCapSegments = 64

// Config parameterizes Restricted Slow-Start.
type Config struct {
	// Sensor is the IFQ being controlled (required).
	Sensor QueueSensor
	// Gains are the PID parameters; zero means PaperGains(DefaultCritical).
	Gains pid.Gains
	// SetpointFraction positions the set point as a fraction of the IFQ
	// capacity; the paper uses 0.9, the default for any value outside
	// (0, 1], NaN included.
	SetpointFraction float64
	// Tick is the control period (default 5 ms).
	Tick time.Duration
	// OutMaxSegmentsPerSec clamps the controller output, which is a
	// window growth *rate* in segments per second (default 12800 ≈ 64
	// segments per 5 ms tick). Rate units make the loop gain independent
	// of the control period, so the tick can be varied without retuning.
	OutMaxSegmentsPerSec float64
	// AllowShrink lets a negative controller output actively shrink the
	// window during slow-start (an ablation; the paper's scheme only
	// restricts growth).
	AllowShrink bool
	// DerivativeTau is the time constant of the derivative term's
	// low-pass filter (default 10 ms). Time units, not per-tick
	// fractions, so varying Tick does not change the filtering.
	DerivativeTau time.Duration
	// SmoothingTau is the time constant of the EWMA applied to the
	// sampled IFQ occupancy before it reaches the controller (default
	// 15 ms). ACK-clocked sends arrive in sub-RTT bursts; without
	// smoothing the derivative term chases that ripple. Negative
	// disables smoothing.
	SmoothingTau time.Duration
}

func (c Config) withDefaults() Config {
	if !(c.SetpointFraction > 0 && c.SetpointFraction <= 1) { // NaN too
		c.SetpointFraction = 0.9
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Millisecond
	}
	if c.OutMaxSegmentsPerSec <= 0 {
		c.OutMaxSegmentsPerSec = 12800
	}
	if c.Gains == (pid.Gains{}) {
		c.Gains = pid.PaperGains(DefaultCritical)
	}
	if c.DerivativeTau == 0 {
		c.DerivativeTau = 10 * time.Millisecond
	}
	if c.SmoothingTau == 0 {
		c.SmoothingTau = 15 * time.Millisecond
	}
	return c
}

// alphaFor converts a filter time constant into the per-step EWMA
// coefficient for the given step: alpha = tau / (tau + dt), in [0, 1). The
// sum is taken in float64, so a step near the largest duration cannot wrap
// it negative; below 2⁵³ ns that is the integer sum, exactly.
func alphaFor(tau, dt time.Duration) float64 {
	if tau <= 0 {
		return 0
	}
	return float64(tau) / (float64(tau) + float64(dt))
}

// RestrictedSlowStart is the PID-paced slow-start policy. Create one per
// connection; it runs its own control ticker on the simulation engine.
type RestrictedSlowStart struct {
	cfg    Config
	alpha  float64 // the smoother's per-tick EWMA coefficient
	dt     float64 // the tick in seconds
	ctrl   pid.Controller
	ticker sim.Ticker
	// windows are the connections drawing from this controller's budget.
	// One window is the normal case; several windows model parallel
	// streams from one host (GridFTP): the process variable (the IFQ) is
	// per-interface, so the controller is too, and the streams share its
	// growth budget instead of multiplying the loop gain.
	windows []cc.Window

	allowance int64 // unspent growth budget in bytes
	ticks     int64
	throttled int64 // ticks with non-positive output
	pv        float64
	pvPrimed  bool

	// OnTick, when set, observes every control step (for traces): the
	// smoothed occupancy the controller saw, its output (segments/tick)
	// and the allowance in bytes.
	OnTick func(occupancy float64, output float64, allowance int64)
}

// New builds the policy. The configuration is validated and defaulted.
func New(eng *sim.Engine, cfg Config) (*RestrictedSlowStart, error) {
	r := new(RestrictedSlowStart)
	if err := r.Init(eng, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Init validates and defaults the configuration and (re)initializes the
// policy in place: no windows attached, controller state cleared, ticker
// stopped, counters zeroed. A used value keeps only its window list's
// backing array. On error the policy must not be used.
func (r *RestrictedSlowStart) Init(eng *sim.Engine, cfg Config) error {
	if cfg.Sensor == nil {
		return fmt.Errorf("core: Config.Sensor is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Sensor.Capacity() <= 0 {
		return fmt.Errorf("core: sensor capacity must be positive")
	}
	clear(r.windows)
	windows := r.windows[:0]
	*r = RestrictedSlowStart{} // zero, then set: a literal that reads r is built aside and copied
	r.cfg, r.windows = cfg, windows
	r.alpha, r.dt = alphaFor(cfg.SmoothingTau, cfg.Tick), cfg.Tick.Seconds()
	setpoint := cfg.SetpointFraction * float64(cfg.Sensor.Capacity())
	err := r.ctrl.Init(pid.Config{
		Gains:    cfg.Gains,
		Setpoint: setpoint,
		OutMin:   -cfg.OutMaxSegmentsPerSec,
		OutMax:   cfg.OutMaxSegmentsPerSec,
		// Integral separation: the long initial ramp (IFQ empty, error
		// = setpoint) must not wind up the integral, or the controller
		// would keep granting growth long after the queue overshoots.
		// The band is deliberately narrow — on this integrating plant
		// the I term only has to cancel the small residual offset.
		IntegralBand:    setpoint * 0.15,
		DerivativeAlpha: alphaFor(cfg.DerivativeTau, cfg.Tick),
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.ticker.InitHook(eng, cfg.Tick, (*controlTick)(r))
	return nil
}

// MustNew is New for statically-correct configurations.
func MustNew(eng *sim.Engine, cfg Config) *RestrictedSlowStart {
	r, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Name identifies the policy.
func (r *RestrictedSlowStart) Name() string { return "restricted" }

// Reset binds a window and (re)starts the control loop; called by the Reno
// machinery at connection start and whenever slow-start is re-entered. With
// several attached windows (shared per-interface controller) the dynamic
// state is cleared only by the first.
func (r *RestrictedSlowStart) Reset(w cc.Window) {
	if !slices.Contains(r.windows, w) {
		r.windows = append(r.windows, w)
	}
	if len(r.windows) == 1 {
		r.ctrl.Reset()
		r.allowance = 0
		r.pv = 0
		r.pvPrimed = false
	}
	if !r.ticker.Running() {
		r.ticker.Start()
	}
}

// Advance grants window growth from the PID budget: standard slow-start
// would add one MSS per ACK; RSS adds at most that, and no more than the
// controller has budgeted. Windows sharing the controller draw from the
// same budget.
func (r *RestrictedSlowStart) Advance(w cc.Window, acked int64) int64 {
	if r.allowance <= 0 {
		return 0
	}
	inc := int64(w.MSS())
	if inc > r.allowance {
		inc = r.allowance
	}
	r.allowance -= inc
	return inc
}

// controlTick is the policy as its ticker's hook.
type controlTick RestrictedSlowStart

func (h *controlTick) Fire() { (*RestrictedSlowStart)(h).tick() }

// tick runs one control step.
func (r *RestrictedSlowStart) tick() {
	r.ticks++
	// The controller acts while any attached window is in slow-start.
	var active cc.Window
	for _, w := range r.windows {
		if w.Cwnd() < w.Ssthresh() {
			active = w
			break
		}
	}
	if active == nil {
		// Outside slow-start the controller idles: state cleared so a
		// later slow-start restart begins fresh (paper scope: slow-start
		// phase only).
		if len(r.windows) > 0 {
			r.ctrl.Reset()
			r.allowance = 0
		}
		return
	}
	occ := r.observe()
	u := r.ctrl.Update(occ, r.cfg.Tick) // segments per second
	mss := int64(active.MSS())
	switch {
	case u > 0:
		r.allowance += int64(u * r.dt * float64(mss))
		cap := allowanceCapSegments * mss
		if r.allowance > cap {
			r.allowance = cap
		}
	default:
		r.throttled++
		r.allowance = 0
		if r.cfg.AllowShrink && u < 0 {
			dec := int64(-u * r.dt * float64(mss))
			cwnd := active.Cwnd() - dec
			active.SetCwnd(cwnd) // sender clamps at 1 MSS
		}
	}
	if r.OnTick != nil {
		r.OnTick(occ, u, r.allowance)
	}
}

// observe samples the sensor through the EWMA smoother.
func (r *RestrictedSlowStart) observe() float64 {
	raw := float64(r.cfg.Sensor.Len())
	if r.alpha <= 0 {
		return raw
	}
	if !r.pvPrimed {
		r.pv = raw
		r.pvPrimed = true
		return raw
	}
	r.pv = r.alpha*r.pv + (1-r.alpha)*raw
	return r.pv
}

// Stop halts the control ticker (e.g. when the connection completes).
func (r *RestrictedSlowStart) Stop() { r.ticker.Stop() }

// Setpoint returns the controller's target IFQ occupancy in packets.
func (r *RestrictedSlowStart) Setpoint() float64 { return r.ctrl.Setpoint() }

// Gains returns the active PID gains.
func (r *RestrictedSlowStart) Gains() pid.Gains { return r.ctrl.Gains() }

// Allowance returns the unspent growth budget in bytes.
func (r *RestrictedSlowStart) Allowance() int64 { return r.allowance }

// Ticks returns the number of control steps taken.
func (r *RestrictedSlowStart) Ticks() int64 { return r.ticks }

// ThrottledTicks returns control steps whose output was non-positive.
func (r *RestrictedSlowStart) ThrottledTicks() int64 { return r.throttled }

var _ cc.SlowStartPolicy = (*RestrictedSlowStart)(nil)
