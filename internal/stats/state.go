package stats

import (
	"fmt"
	"strconv"
)

// Accumulator state transport: the exact internal state of a streaming
// summarizer, serialized so a campaign shard can hand its partial (or
// complete) aggregation to the merge without losing a single bit.
// Floats travel as hexadecimal literals ("0x1.999999999999ap-04"), which
// round-trip IEEE-754 doubles exactly — including NaN and the infinities,
// which encoding/json would reject as bare numbers. A restored accumulator
// is indistinguishable from the original: Summary(), Merge() and further
// Add() calls all produce bit-identical results.

// hexFloat renders v as an exactly round-trippable literal.
func hexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// parseHexFloat restores a float from hexFloat's output (it also accepts
// decimal literals, NaN and ±Inf — anything strconv.ParseFloat takes).
func parseHexFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func hexFloats(vs []float64) []string {
	if len(vs) == 0 {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = hexFloat(v)
	}
	return out
}

func parseHexFloats(ss []string, want int, field string) ([]float64, error) {
	if want >= 0 && len(ss) != want {
		return nil, fmt.Errorf("stats: state field %s: want %d values, got %d", field, want, len(ss))
	}
	out := make([]float64, len(ss))
	for i, s := range ss {
		v, err := parseHexFloat(s)
		if err != nil {
			return nil, fmt.Errorf("stats: state field %s[%d]: %w", field, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// WelfordState is the exact serialized form of a Welford accumulator.
type WelfordState struct {
	N    int64  `json:"n"`
	Mean string `json:"mean"`
	M2   string `json:"m2"`
	Min  string `json:"min"`
	Max  string `json:"max"`
}

// State snapshots the accumulator exactly.
func (w *Welford) State() WelfordState {
	return WelfordState{
		N:    w.n,
		Mean: hexFloat(w.mean),
		M2:   hexFloat(w.m2),
		Min:  hexFloat(w.min),
		Max:  hexFloat(w.max),
	}
}

// WelfordFromState restores the exact accumulator a State call snapshotted.
func WelfordFromState(st WelfordState) (Welford, error) {
	if st.N < 0 {
		return Welford{}, fmt.Errorf("stats: welford state: negative n %d", st.N)
	}
	vals, err := parseHexFloats([]string{st.Mean, st.M2, st.Min, st.Max}, 4, "welford")
	if err != nil {
		return Welford{}, err
	}
	return Welford{n: st.N, mean: vals[0], m2: vals[1], min: vals[2], max: vals[3]}, nil
}

// P2State is the exact serialized form of a P² quantile estimator: the five
// marker heights plus the actual and desired marker positions.
type P2State struct {
	P   string   `json:"p"`
	Q   []string `json:"q"`
	Pos []string `json:"pos"`
	Np  []string `json:"np"`
	Dn  []string `json:"dn"`
	Cnt int      `json:"cnt"`
}

// State snapshots the estimator exactly.
func (e *P2) State() P2State {
	return P2State{
		P:   hexFloat(e.p),
		Q:   hexFloats(e.q[:]),
		Pos: hexFloats(e.n[:]),
		Np:  hexFloats(e.np[:]),
		Dn:  hexFloats(e.dn[:]),
		Cnt: e.cnt,
	}
}

// P2FromState restores the exact estimator a State call snapshotted.
func P2FromState(st P2State) (P2, error) {
	p, err := parseHexFloat(st.P)
	if err != nil {
		return P2{}, fmt.Errorf("stats: p2 state: %w", err)
	}
	if st.Cnt < 0 {
		return P2{}, fmt.Errorf("stats: p2 state: negative count %d", st.Cnt)
	}
	q, err := parseHexFloats(st.Q, 5, "p2.q")
	if err != nil {
		return P2{}, err
	}
	n, err := parseHexFloats(st.Pos, 5, "p2.pos")
	if err != nil {
		return P2{}, err
	}
	np, err := parseHexFloats(st.Np, 5, "p2.np")
	if err != nil {
		return P2{}, err
	}
	dn, err := parseHexFloats(st.Dn, 5, "p2.dn")
	if err != nil {
		return P2{}, err
	}
	e := P2{p: p, cnt: st.Cnt}
	copy(e.q[:], q)
	copy(e.n[:], n)
	copy(e.np[:], np)
	copy(e.dn[:], dn)
	return e, nil
}

// AccumulatorState is the exact serialized form of an Accumulator. In the
// exact regime it carries the buffered sample (insertion order preserved, so
// the restored quantiles are bit-identical); past overflow it carries the
// full P² estimator states instead.
type AccumulatorState struct {
	MaxExact int          `json:"max_exact,omitempty"`
	Welford  WelfordState `json:"welford"`
	Exact    []string     `json:"exact,omitempty"`
	Approx   bool         `json:"approx,omitempty"`
	P50      *P2State     `json:"p50,omitempty"`
	P90      *P2State     `json:"p90,omitempty"`
}

// State snapshots the accumulator exactly.
func (a *Accumulator) State() AccumulatorState {
	st := AccumulatorState{
		MaxExact: a.MaxExact,
		Welford:  a.w.State(),
		Exact:    hexFloats(a.exact),
		Approx:   a.approx,
	}
	if a.approx {
		p50, p90 := a.p50.State(), a.p90.State()
		st.P50, st.P90 = &p50, &p90
	}
	return st
}

// AccumulatorFromState restores the exact accumulator a State call
// snapshotted: Summary(), Merge() and further Add() calls behave
// bit-identically to the original.
func AccumulatorFromState(st AccumulatorState) (*Accumulator, error) {
	w, err := WelfordFromState(st.Welford)
	if err != nil {
		return nil, err
	}
	a := &Accumulator{MaxExact: st.MaxExact, w: w, approx: st.Approx}
	if st.Approx {
		if st.P50 == nil || st.P90 == nil {
			return nil, fmt.Errorf("stats: accumulator state: approx regime without p2 states")
		}
		if len(st.Exact) != 0 {
			return nil, fmt.Errorf("stats: accumulator state: approx regime with %d buffered values", len(st.Exact))
		}
		if a.p50, err = P2FromState(*st.P50); err != nil {
			return nil, err
		}
		if a.p90, err = P2FromState(*st.P90); err != nil {
			return nil, err
		}
		return a, nil
	}
	if st.P50 != nil || st.P90 != nil {
		return nil, fmt.Errorf("stats: accumulator state: exact regime with p2 states")
	}
	if a.exact, err = parseHexFloats(st.Exact, -1, "exact"); err != nil {
		return nil, err
	}
	if int64(len(a.exact)) != w.n {
		return nil, fmt.Errorf("stats: accumulator state: %d buffered values for n=%d", len(a.exact), w.n)
	}
	return a, nil
}
