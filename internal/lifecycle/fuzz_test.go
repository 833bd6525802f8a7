package lifecycle

import (
	"math"
	"testing"
)

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzParseSource: the arrival-spec parser never panics, accepts only
// finite positive rates no finer than the calendar and positive durations.
// The non-finite seeds in testdata/fuzz used to parse (NaN passes `r <= 0`) and then hang the run
// that drew gaps from them.
func FuzzParseSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		src, err := ParseSource(spec)
		if err != nil {
			return
		}
		switch s := src.(type) {
		case *Poisson:
			if CheckRate(s.PerSecond) != nil {
				t.Fatalf("%q accepted with rate %v", spec, s.PerSecond)
			}
		case *MMPP:
			if CheckRate(s.Lo) != nil || CheckRate(s.Hi) != nil || s.Sojourn <= 0 {
				t.Fatalf("%q accepted as %+v", spec, s)
			}
		case *WebSession:
			if CheckRate(s.SessionsPerSec) != nil || s.FlowsPerSession < 1 || s.Think <= 0 {
				t.Fatalf("%q accepted as %+v", spec, s)
			}
		default:
			t.Fatalf("%q parsed to unexpected %T", spec, src)
		}
		if r := src.Rate(); !finite(r) || r <= 0 {
			t.Fatalf("%q accepted with long-run rate %v", spec, r)
		}
	})
}

// FuzzParseSizeDist: the size-distribution parser never panics, accepts only
// finite in-range parameters (sizes below 2^63 bytes, so Fixed cannot
// overflow). "fixed:Inf" used to parse to math.MinInt64 bytes.
func FuzzParseSizeDist(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseSizeDist(spec)
		if err != nil {
			return
		}
		switch x := d.(type) {
		case Fixed:
			if x.Bytes < 1 {
				t.Fatalf("%q accepted with %d bytes", spec, x.Bytes)
			}
		case Exponential:
			if !finite(x.MeanBytes) || x.MeanBytes <= 0 || x.MeanBytes >= math.MaxInt64 {
				t.Fatalf("%q accepted with mean %v", spec, x.MeanBytes)
			}
		case BoundedPareto:
			if !finite(x.Alpha, x.Min, x.Max) || x.Alpha <= 0 || x.Min < 1 || x.Max < x.Min || x.Max >= math.MaxInt64 {
				t.Fatalf("%q accepted as %+v", spec, x)
			}
		case Lognormal:
			if !finite(x.Median, x.Sigma) || x.Median <= 0 || x.Median >= math.MaxInt64 || x.Sigma < 0 {
				t.Fatalf("%q accepted as %+v", spec, x)
			}
		default:
			t.Fatalf("%q parsed to unexpected %T", spec, d)
		}
	})
}
