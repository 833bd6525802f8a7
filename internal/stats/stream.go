package stats

import (
	"math"
	"slices"
	"sort"
)

// DefaultExactQuantiles is the Accumulator's default exact-buffer capacity.
// Up to this many observations, reported quantiles are computed from the
// full sorted sample and match batch Describe bit for bit; past it the
// moments stay exact while P50/P90 switch to deterministic P² estimates.
const DefaultExactQuantiles = 4096

// Accumulator is a mergeable online summarizer: Welford moments plus an
// exact quantile buffer for the first MaxExact observations. It is what the
// campaign engine folds each finished replicate into so per-cell summaries
// exist without retaining the replicates themselves.
//
// Within the exact regime, Summary is bit-identical to Describe over the
// same values in the same order: the same Welford recurrence in insertion
// order, the same min/max tracking, and the same sorted-sample linear
// interpolation for the quantiles. The zero value is ready to use.
type Accumulator struct {
	// MaxExact caps the exact quantile buffer (0 = DefaultExactQuantiles).
	// Set it before the first Add.
	MaxExact int

	w      Welford
	exact  []float64
	p50    P2
	p90    P2
	approx bool
}

func (a *Accumulator) maxExact() int {
	if a.MaxExact > 0 {
		return a.MaxExact
	}
	return DefaultExactQuantiles
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.w.Add(x)
	if !a.approx {
		if len(a.exact) < a.maxExact() {
			a.exact = append(a.exact, x)
			return
		}
		a.overflow()
	}
	a.p50.Add(x)
	a.p90.Add(x)
}

// overflow switches the quantile side to P² estimation, replaying the exact
// buffer so the estimators see the full insertion-ordered history. The
// moments are untouched (they were never buffered).
func (a *Accumulator) overflow() {
	a.approx = true
	a.p50 = NewP2(0.50)
	a.p90 = NewP2(0.90)
	for _, x := range a.exact {
		a.p50.Add(x)
		a.p90.Add(x)
	}
	a.exact = a.exact[:0]
}

// N returns the observation count.
func (a *Accumulator) N() int { return int(a.w.N()) }

// Reset empties the accumulator for reuse, keeping the exact buffer's
// capacity and the MaxExact policy.
func (a *Accumulator) Reset() {
	a.w = Welford{}
	a.exact = a.exact[:0]
	a.approx = false
}

// Summary condenses the accumulated observations. In the exact regime it is
// bit-identical to Describe over the same values in insertion order; past
// MaxExact the N/Mean/Std/Min/Max fields remain exact and P50/P90 are P²
// estimates. With no observations every moment is NaN, matching Describe on
// an empty slice.
func (a *Accumulator) Summary() Summary {
	n := int(a.w.N())
	if n == 0 {
		return Describe(nil)
	}
	s := Summary{
		N:    n,
		Mean: a.w.Mean(),
		Std:  a.w.Std(),
		Min:  a.w.Min(),
		Max:  a.w.Max(),
	}
	if !a.approx {
		sorted := a.sorted()
		s.P50 = percentileSorted(sorted, 0.50)
		s.P90 = percentileSorted(sorted, 0.90)
	} else {
		s.P50 = a.p50.Quantile()
		s.P90 = a.p90.Quantile()
	}
	return s
}

// Percentile returns the exact p-quantile — sorted-sample linear
// interpolation, the same estimator Summary uses for P50/P90 — while the
// accumulator is still in the exact regime. Once it has overflowed into P²
// estimation (or holds no observations) ok is false and the caller must fall
// back to its own tail estimator; the Accumulator only tracks P50/P90 past
// the exact buffer.
func (a *Accumulator) Percentile(p float64) (q float64, ok bool) {
	if a.approx || len(a.exact) == 0 {
		return math.NaN(), false
	}
	return percentileSorted(a.sorted(), p), true
}

// sorted returns the exact buffer's values in ascending order. It sorts a
// copy in the buffer's spare capacity, grown to hold one once and kept, so a
// summary does not allocate one. That scratch is not state: State neither
// writes nor reads it, and the buffer itself is never sorted, since overflow
// replays it in insertion order.
func (a *Accumulator) sorted() []float64 {
	n := len(a.exact)
	a.exact = slices.Grow(a.exact, n)
	s := append(a.exact[n:n], a.exact...)
	sort.Float64s(s)
	return s
}

// P2 estimates a single quantile online in constant space with the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the running
// min, max, target quantile and its flanking mid-quantiles, adjusted by
// piecewise-parabolic interpolation as observations arrive. The estimate is
// deterministic — it depends only on the observation sequence — which keeps
// campaign output independent of worker scheduling.
type P2 struct {
	p   float64
	q   [5]float64 // marker heights
	n   [5]float64 // actual marker positions (1-based)
	np  [5]float64 // desired marker positions
	dn  [5]float64 // desired-position increments
	cnt int
}

// NewP2 returns an estimator for the p-quantile, p in (0, 1).
func NewP2(p float64) P2 {
	return P2{p: p, dn: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
}

// Add feeds one observation.
func (e *P2) Add(x float64) {
	if e.cnt < 5 {
		e.q[e.cnt] = x
		e.cnt++
		if e.cnt == 5 {
			sort.Float64s(e.q[:])
			for i := range e.n {
				e.n[i] = float64(i + 1)
			}
			e.np = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.cnt++
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dn[i]
	}
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			if qp := e.parabolic(i, s); e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height adjustment for marker i
// moving by s (±1).
func (e *P2) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height adjustment when the parabola leaves the
// neighbouring markers' bracket.
func (e *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// Quantile returns the current estimate: exact (interpolated from the
// buffered points) below five observations, the middle marker's height
// after, NaN with none.
func (e *P2) Quantile() float64 {
	if e.cnt == 0 {
		return math.NaN()
	}
	if e.cnt < 5 {
		s := append([]float64(nil), e.q[:e.cnt]...)
		sort.Float64s(s)
		return percentileSorted(s, e.p)
	}
	return e.q[2]
}
