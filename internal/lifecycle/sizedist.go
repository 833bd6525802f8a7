package lifecycle

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rsstcp/internal/sim"
)

// SizeDist is a flow-size distribution. Sample draws one transfer size in
// bytes (always ≥ 1) from the given stream; Mean reports the analytic
// expectation so callers can convert an offered-load fraction into an
// arrival rate.
type SizeDist interface {
	Sample(rng *sim.RNG) int64
	Mean() float64
}

// Fixed is the degenerate distribution: every flow transfers Bytes bytes.
type Fixed struct{ Bytes int64 }

// Sample returns the fixed size.
func (f Fixed) Sample(*sim.RNG) int64 { return max64(f.Bytes, 1) }

// Mean returns the fixed size.
func (f Fixed) Mean() float64 { return float64(max64(f.Bytes, 1)) }

// Exponential draws sizes from an exponential distribution with the given
// mean — the classic memoryless transfer mix.
type Exponential struct{ MeanBytes float64 }

// Sample draws one exponential size.
func (e Exponential) Sample(rng *sim.RNG) int64 {
	return clampSize(e.MeanBytes * rng.ExpFloat64())
}

// Mean returns the configured mean.
func (e Exponential) Mean() float64 { return e.MeanBytes }

// BoundedPareto draws sizes from a Pareto distribution truncated to
// [Min, Max] — the standard model for heavy-tailed web transfers: most
// flows are mice near Min, a deterministic minority are elephants out to
// Max. Alpha is the tail index (smaller = heavier tail; web traffic is
// typically 1.1–1.5).
type BoundedPareto struct {
	Alpha    float64
	Min, Max float64
}

// Sample draws via the bounded-Pareto inverse CDF: U=0 maps to Min and
// U→1 approaches Max, so every draw lands inside the bounds by
// construction (no rejection loop, one uniform per sample).
func (p BoundedPareto) Sample(rng *sim.RNG) int64 {
	u := rng.Float64()
	ratio := math.Pow(p.Min/p.Max, p.Alpha)
	x := p.Min / math.Pow(1-u*(1-ratio), 1/p.Alpha)
	if x > p.Max {
		x = p.Max
	}
	return clampSize(x)
}

// Mean returns the analytic bounded-Pareto expectation, including the
// α = 1 special case where the general formula degenerates to 0/0.
func (p BoundedPareto) Mean() float64 {
	l, h, a := p.Min, p.Max, p.Alpha
	if l == h {
		return l
	}
	if a == 1 {
		return l * h * math.Log(h/l) / (h - l)
	}
	ratio := math.Pow(l/h, a)
	return math.Pow(l, a) / (1 - ratio) * a / (a - 1) *
		(math.Pow(l, 1-a) - math.Pow(h, 1-a))
}

// Lognormal draws sizes from a lognormal distribution parameterised by its
// median (exp of the underlying normal's mean) and Sigma (the underlying
// normal's standard deviation).
type Lognormal struct {
	Median float64
	Sigma  float64
}

// Sample draws one lognormal size.
func (l Lognormal) Sample(rng *sim.RNG) int64 {
	return clampSize(l.Median * math.Exp(l.Sigma*rng.NormFloat64()))
}

// Mean returns the analytic lognormal expectation Median·exp(σ²/2).
func (l Lognormal) Mean() float64 {
	return l.Median * math.Exp(l.Sigma*l.Sigma/2)
}

// ParseSizeDist builds a SizeDist from its colon-separated spec:
//
//	fixed:SIZE          every flow transfers SIZE bytes
//	exp:MEAN            exponential with the given mean
//	pareto:ALPHA:MIN:MAX  bounded Pareto (heavy-tailed) on [MIN, MAX]
//	lognorm:MEDIAN:SIGMA  lognormal with the given median and shape
//
// Sizes accept k/M/G decimal suffixes ("64k" = 64 000 bytes, matching
// unit.ByteSize's decimal convention).
func ParseSizeDist(spec string) (SizeDist, error) {
	parts := strings.Split(spec, ":")
	bad := func(format string, args ...any) (SizeDist, error) {
		return nil, fmt.Errorf("size dist %q: %s", spec, fmt.Sprintf(format, args...))
	}
	switch parts[0] {
	case "fixed":
		if len(parts) != 2 {
			return bad("want fixed:SIZE")
		}
		n, err := parseSize(parts[1])
		if err != nil || n < 1 {
			return bad("bad size %q", parts[1])
		}
		return Fixed{Bytes: int64(n)}, nil
	case "exp":
		if len(parts) != 2 {
			return bad("want exp:MEAN")
		}
		m, err := parseSize(parts[1])
		if err != nil || m <= 0 {
			return bad("bad mean %q", parts[1])
		}
		return Exponential{MeanBytes: m}, nil
	case "pareto":
		if len(parts) != 4 {
			return bad("want pareto:ALPHA:MIN:MAX")
		}
		a, err := ParseFinite(parts[1])
		if err != nil || a <= 0 {
			return bad("bad alpha %q", parts[1])
		}
		lo, err := parseSize(parts[2])
		if err != nil || lo < 1 {
			return bad("bad min %q", parts[2])
		}
		hi, err := parseSize(parts[3])
		if err != nil || hi < lo {
			return bad("bad max %q (must be ≥ min)", parts[3])
		}
		return BoundedPareto{Alpha: a, Min: lo, Max: hi}, nil
	case "lognorm":
		if len(parts) != 3 {
			return bad("want lognorm:MEDIAN:SIGMA")
		}
		med, err := parseSize(parts[1])
		if err != nil || med <= 0 {
			return bad("bad median %q", parts[1])
		}
		sig, err := ParseFinite(parts[2])
		if err != nil || sig < 0 {
			return bad("bad sigma %q", parts[2])
		}
		return Lognormal{Median: med, Sigma: sig}, nil
	}
	return bad("unknown distribution %q (want fixed|exp|pareto|lognorm)", parts[0])
}

// parseSize parses a byte count with an optional decimal k/M/G suffix.
func parseSize(s string) (float64, error) {
	mult := 1.0
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, s = 1e3, s[:n-1]
		case 'M':
			mult, s = 1e6, s[:n-1]
		case 'G':
			mult, s = 1e9, s[:n-1]
		}
	}
	v, err := ParseFinite(s)
	if err != nil {
		return 0, err
	}
	if v *= mult; v >= math.MaxInt64 {
		return 0, fmt.Errorf("size %q overflows a byte count", s)
	}
	return v, nil
}

// ParseFinite is strconv.ParseFloat restricted to finite values. Spec and
// axis parsers go through it: their range checks are ordered comparisons,
// which NaN slips past, and an infinite rate or size has no simulation.
func ParseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite number %q", s)
	}
	return v, nil
}

func clampSize(v float64) int64 {
	if !(v >= 1) { // catches NaN too
		return 1
	}
	return int64(v)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
