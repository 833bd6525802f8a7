package pid

import (
	"math"
	"testing"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func baseConfig(g Gains) Config {
	return Config{Gains: g, Setpoint: 10, OutMin: -100, OutMax: 100}
}

func TestProportionalOnly(t *testing.T) {
	c := mustNew(t, baseConfig(Gains{Kp: 2}))
	u := c.Update(4, 10*time.Millisecond) // error = 6
	if u != 12 {
		t.Errorf("u = %v, want 12 (Kp*e)", u)
	}
	u = c.Update(16, 10*time.Millisecond) // error = -6
	if u != -12 {
		t.Errorf("u = %v, want -12", u)
	}
}

func TestIntegralAccumulates(t *testing.T) {
	c := mustNew(t, baseConfig(Gains{Kp: 1, Ti: time.Second}))
	// Constant error 5 for 1 second in 10 steps: integral contribution
	// approaches Kp * (1/Ti) * ∫e = 5 after the full second.
	var u float64
	for i := 0; i < 10; i++ {
		u = c.Update(5, 100*time.Millisecond)
	}
	// u = Kp*(e + I) = 5 + 5 = 10.
	if math.Abs(u-10) > 1e-9 {
		t.Errorf("u = %v, want 10 after 1s of error 5", u)
	}
}

func TestIntegralEliminatesSteadyStateError(t *testing.T) {
	// First-order plant: y' = (u - y) / tau. With P-only control there is
	// a steady-state offset; with PI the error must vanish.
	run := func(g Gains) float64 {
		c := mustNew(t, Config{Gains: g, Setpoint: 10, OutMin: -1000, OutMax: 1000})
		y := 0.0
		dt := 10 * time.Millisecond
		for i := 0; i < 5000; i++ {
			u := c.Update(y, dt)
			y += (u - y) * dt.Seconds() / 0.2
		}
		return 10 - y
	}
	pErr := run(Gains{Kp: 2})
	piErr := run(Gains{Kp: 2, Ti: 500 * time.Millisecond})
	if math.Abs(pErr) < 1 {
		t.Errorf("P-only steady error = %v, expected a visible offset", pErr)
	}
	if math.Abs(piErr) > 0.05 {
		t.Errorf("PI steady error = %v, want ~0", piErr)
	}
}

func TestDerivativeBrakesOnFastRise(t *testing.T) {
	cfg := baseConfig(Gains{Kp: 1, Td: time.Second})
	c := mustNew(t, cfg)
	c.Update(0, 100*time.Millisecond)
	// PV jumps toward the setpoint: derivative on measurement is negative,
	// braking the output below pure-P.
	u := c.Update(5, 100*time.Millisecond)
	pOnly := 1.0 * (10 - 5)
	if u >= pOnly {
		t.Errorf("u = %v, want < %v (derivative brake)", u, pOnly)
	}
}

func TestDerivativeOnMeasurementAvoidsSetpointKick(t *testing.T) {
	cfg := baseConfig(Gains{Kp: 1, Td: time.Second})
	c := mustNew(t, cfg)
	c.Update(5, 100*time.Millisecond)
	c.Update(5, 100*time.Millisecond)
	// Setpoint step: derivative-on-measurement must not spike since the
	// PV did not move.
	c.SetSetpoint(50)
	u := c.Update(5, 100*time.Millisecond)
	if u != 45 {
		t.Errorf("u = %v, want 45 (no kick: pure P on new error)", u)
	}
}

func TestOutputClamped(t *testing.T) {
	cfg := Config{Gains: Gains{Kp: 100}, Setpoint: 10, OutMin: -5, OutMax: 5}
	c := mustNew(t, cfg)
	if u := c.Update(0, time.Millisecond); u != 5 {
		t.Errorf("u = %v, want clamp 5", u)
	}
	if u := c.Update(1000, time.Millisecond); u != -5 {
		t.Errorf("u = %v, want clamp -5", u)
	}
}

func TestAntiWindup(t *testing.T) {
	// Saturate high for a long time, then drop the error: a wound-up
	// integral would keep the output pinned high for many steps; with
	// anti-windup it recovers immediately.
	cfg := Config{Gains: Gains{Kp: 1, Ti: 100 * time.Millisecond}, Setpoint: 10, OutMin: 0, OutMax: 5}
	c := mustNew(t, cfg)
	for i := 0; i < 1000; i++ {
		c.Update(0, 10*time.Millisecond) // error 10, output pinned at 5
	}
	// Error now negative: output should leave saturation promptly.
	u := c.Update(20, 10*time.Millisecond)
	if u >= 5 {
		t.Errorf("u = %v, want below saturation right away (anti-windup)", u)
	}
}

func TestIntegralSeparation(t *testing.T) {
	cfg := baseConfig(Gains{Kp: 1, Ti: time.Second})
	cfg.IntegralBand = 3
	c := mustNew(t, cfg)
	// Error = 10, outside the band: no integration.
	for i := 0; i < 100; i++ {
		c.Update(0, 10*time.Millisecond)
	}
	if c.Integral() != 0 {
		t.Errorf("integral = %v outside band, want 0", c.Integral())
	}
	// Error = 2, inside the band: integration resumes.
	c.Update(8, 10*time.Millisecond)
	if c.Integral() == 0 {
		t.Error("integral did not accumulate inside band")
	}
}

func TestIntegralBandValidation(t *testing.T) {
	cfg := baseConfig(Gains{Kp: 1})
	cfg.IntegralBand = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative IntegralBand accepted")
	}
}

func TestResetClearsState(t *testing.T) {
	c := mustNew(t, baseConfig(Gains{Kp: 1, Ti: 100 * time.Millisecond, Td: 100 * time.Millisecond}))
	for i := 0; i < 10; i++ {
		c.Update(0, 10*time.Millisecond)
	}
	if c.Integral() == 0 {
		t.Fatal("integral did not accumulate")
	}
	c.Reset()
	if c.Integral() != 0 || c.LastOutput() != 0 {
		t.Error("Reset left state behind")
	}
}

func TestZeroDtReturnsLastOutput(t *testing.T) {
	c := mustNew(t, baseConfig(Gains{Kp: 1}))
	u1 := c.Update(3, 10*time.Millisecond)
	u2 := c.Update(99, 0)
	if u2 != u1 {
		t.Errorf("zero-dt update = %v, want unchanged %v", u2, u1)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Gains: Gains{Kp: -1}, OutMin: 0, OutMax: 1},
		{Gains: Gains{Kp: 1, Ti: -time.Second}, OutMin: 0, OutMax: 1},
		{Gains: Gains{Kp: 1, Td: -time.Second}, OutMin: 0, OutMax: 1},
		{Gains: Gains{Kp: 1}, OutMin: 1, OutMax: 1},
		{Gains: Gains{Kp: 1}, OutMin: 0, OutMax: 1, DerivativeAlpha: 1},
		{Gains: Gains{Kp: 1}, OutMin: 0, OutMax: 1, DerivativeAlpha: -0.1},
		// NaN fails every comparison, so the range checks alone pass it.
		{Gains: Gains{Kp: math.NaN()}, OutMin: 0, OutMax: 1},
		{Gains: Gains{Kp: 1}, Setpoint: math.NaN(), OutMin: 0, OutMax: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Gains: Gains{Kp: 1}, OutMin: -1, OutMax: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestPaperGainConstants(t *testing.T) {
	c := Critical{Kc: 3, Tc: time.Second}
	g := PaperGains(c)
	if math.Abs(g.Kp-0.99) > 1e-9 {
		t.Errorf("Kp = %v, want 0.99 (0.33*Kc)", g.Kp)
	}
	if g.Ti != 500*time.Millisecond {
		t.Errorf("Ti = %v, want 0.5*Tc", g.Ti)
	}
	if g.Td != 330*time.Millisecond {
		t.Errorf("Td = %v, want 0.33*Tc", g.Td)
	}
}

func TestClassicGainConstants(t *testing.T) {
	c := Critical{Kc: 2, Tc: 2 * time.Second}
	g := ClassicGains(c)
	if math.Abs(g.Kp-1.2) > 1e-9 || g.Ti != time.Second || g.Td != 250*time.Millisecond {
		t.Errorf("classic gains = %v", g)
	}
}

func TestRuleApply(t *testing.T) {
	c := Critical{Kc: 1, Tc: time.Second}
	if g := RulePaper.Apply(c); g != PaperGains(c) {
		t.Error("RulePaper mismatch")
	}
	if g := RuleClassic.Apply(c); g != ClassicGains(c) {
		t.Error("RuleClassic mismatch")
	}
	if g := RulePI.Apply(c); g != PIGains(c) {
		t.Error("RulePI mismatch")
	}
	if g := RuleP.Apply(c); g != PGains(c) {
		t.Error("RuleP mismatch")
	}
	if g := RuleNoOvershoot.Apply(c); g != NoOvershootGains(c) {
		t.Error("RuleNoOvershoot mismatch")
	}
	if g := Rule("bogus").Apply(c); g != PaperGains(c) {
		t.Error("unknown rule should fall back to paper constants")
	}
}

func TestGainsString(t *testing.T) {
	s := Gains{Kp: 0.5, Ti: time.Second, Td: 100 * time.Millisecond}.String()
	if s == "" {
		t.Error("empty Gains string")
	}
}

func TestDerivativeFilterSmooths(t *testing.T) {
	raw := mustNew(t, baseConfig(Gains{Kp: 1, Td: time.Second}))
	filt := mustNew(t, func() Config {
		cfg := baseConfig(Gains{Kp: 1, Td: time.Second})
		cfg.DerivativeAlpha = 0.9
		return cfg
	}())
	raw.Update(0, 10*time.Millisecond)
	filt.Update(0, 10*time.Millisecond)
	// A PV spike produces a much smaller response through the filter.
	uRaw := raw.Update(5, 10*time.Millisecond)
	uFilt := filt.Update(5, 10*time.Millisecond)
	if math.Abs(uFilt-5) >= math.Abs(uRaw-5) {
		t.Errorf("filtered response %v not smoother than raw %v", uFilt, uRaw)
	}
}
