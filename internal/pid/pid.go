// Package pid implements the PID controller of the paper's Section 3 in the
// ISA standard (non-interacting) form it quotes:
//
//	u(t) = Kp * ( E + (1/Ti) ∫E dt + Td dE/dt )
//
// with the practical refinements a discrete controller needs: integral
// anti-windup by conditional integration, a first-order low-pass on the
// derivative, derivative-on-measurement to avoid set-point kick, and output
// clamping. Gain schedules derived from Ziegler-Nichols critical parameters
// (the paper's constants and the classic table) live in gains.go.
package pid

import (
	"fmt"
	"math"
	"time"
)

// Gains holds the standard-form parameters.
type Gains struct {
	// Kp is the proportional gain.
	Kp float64
	// Ti is the integral (reset) time; zero disables the integral term.
	Ti time.Duration
	// Td is the derivative time; zero disables the derivative term.
	Td time.Duration
}

// Validate returns why g is outside the domain a controller accepts, as one
// line that starts with the field's name, or nil: Kp must be ≥ 0 (NaN is
// not), Ti and Td must not be negative.
func (g Gains) Validate() error {
	switch {
	case !(g.Kp >= 0):
		return fmt.Errorf("Kp %v is negative or NaN", g.Kp)
	case g.Ti < 0:
		return fmt.Errorf("Ti %v is negative", g.Ti)
	case g.Td < 0:
		return fmt.Errorf("Td %v is negative", g.Td)
	}
	return nil
}

// String renders the gains compactly.
func (g Gains) String() string {
	return fmt.Sprintf("Kp=%.4g Ti=%v Td=%v", g.Kp, g.Ti, g.Td)
}

// Config parameterizes a Controller.
type Config struct {
	// Gains are the standard-form PID parameters.
	Gains Gains
	// Setpoint is the target process value (the paper: 90% of max IFQ).
	Setpoint float64
	// OutMin and OutMax clamp the output; they also bound integral
	// windup. OutMax must exceed OutMin.
	OutMin, OutMax float64
	// IntegralBand enables integral separation: the integral accumulates
	// only while |error| <= IntegralBand, so long ramps far from the set
	// point cannot wind it up. Zero integrates unconditionally.
	IntegralBand float64
	// DerivativeAlpha in [0,1) low-pass filters the derivative
	// (0 = unfiltered, larger = smoother).
	DerivativeAlpha float64
}

// Controller is a discrete-time PID controller. It is not safe for
// concurrent use; in the simulator it runs on a single control ticker.
type Controller struct {
	cfg      Config
	integral float64 // ∫E dt, in units of (error × seconds)
	lastPV   float64
	dState   float64 // filtered derivative
	primed   bool    // lastPV valid
	lastOut  float64
}

// New validates the configuration and returns a controller.
func New(cfg Config) (*Controller, error) {
	c := new(Controller)
	if err := c.Init(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Init validates the configuration and (re)initializes the controller in
// place with cleared dynamic state; on error the controller is unchanged.
func (c *Controller) Init(cfg Config) error {
	if err := cfg.Gains.Validate(); err != nil {
		return fmt.Errorf("pid: %w", err)
	}
	if math.IsNaN(cfg.Setpoint) {
		return fmt.Errorf("pid: NaN set point")
	}
	if cfg.OutMax <= cfg.OutMin {
		return fmt.Errorf("pid: OutMax %v must exceed OutMin %v", cfg.OutMax, cfg.OutMin)
	}
	if cfg.DerivativeAlpha < 0 || cfg.DerivativeAlpha >= 1 {
		return fmt.Errorf("pid: DerivativeAlpha %v outside [0,1)", cfg.DerivativeAlpha)
	}
	if cfg.IntegralBand < 0 {
		return fmt.Errorf("pid: negative IntegralBand %v", cfg.IntegralBand)
	}
	*c = Controller{cfg: cfg}
	return nil
}

// MustNew is New for statically-known configurations; it panics on error.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Setpoint returns the current target.
func (c *Controller) Setpoint() float64 { return c.cfg.Setpoint }

// SetSetpoint retargets the controller without resetting its state.
func (c *Controller) SetSetpoint(sp float64) { c.cfg.Setpoint = sp }

// Gains returns the configured gains.
func (c *Controller) Gains() Gains { return c.cfg.Gains }

// LastOutput returns the most recent output (0 before the first Update).
func (c *Controller) LastOutput() float64 { return c.lastOut }

// Integral returns the accumulated integral state (for inspection).
func (c *Controller) Integral() float64 { return c.integral }

// Reset clears the dynamic state (integral, derivative memory).
func (c *Controller) Reset() {
	c.integral = 0
	c.dState = 0
	c.primed = false
	c.lastOut = 0
}

// Update advances the controller by dt with process variable pv and returns
// the clamped output.
func (c *Controller) Update(pv float64, dt time.Duration) float64 {
	if dt <= 0 {
		return c.lastOut
	}
	dts := dt.Seconds()
	e := c.cfg.Setpoint - pv
	g := c.cfg.Gains

	// Integral with conditional anti-windup: tentatively accumulate, and
	// roll back if doing so pushed the output further into saturation.
	var iTerm float64
	prevIntegral := c.integral
	if g.Ti > 0 {
		if c.cfg.IntegralBand <= 0 || math.Abs(e) <= c.cfg.IntegralBand {
			c.integral += e * dts
		}
		iTerm = c.integral / g.Ti.Seconds()
	}

	// Derivative on measurement, low-pass filtered: a set-point change
	// kicks nothing.
	var dTerm float64
	if g.Td > 0 && c.primed {
		raw := -(pv - c.lastPV) / dts
		a := c.cfg.DerivativeAlpha
		c.dState = a*c.dState + (1-a)*raw
		dTerm = g.Td.Seconds() * c.dState
	}

	u := g.Kp * (e + iTerm + dTerm)
	if u > c.cfg.OutMax {
		if g.Ti > 0 && e > 0 {
			c.integral = prevIntegral // don't wind further up
		}
		u = c.cfg.OutMax
	} else if u < c.cfg.OutMin {
		if g.Ti > 0 && e < 0 {
			c.integral = prevIntegral // don't wind further down
		}
		u = c.cfg.OutMin
	}
	if math.IsNaN(u) {
		u = 0
	}

	c.lastPV = pv
	c.primed = true
	c.lastOut = u
	return u
}
