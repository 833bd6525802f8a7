// Package trace records time series from a running simulation — sampled
// gauges (cwnd, IFQ occupancy) and event series (cumulative send-stalls) —
// and renders them as CSV or aligned text for the figures.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rsstcp/internal/sim"
)

// Point is one observation of a series.
type Point struct {
	T sim.Time
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends an observation.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Reserve grows the series' backing buffer to hold at least n points, so a
// sampling run appends without reallocating.
func (s *Series) Reserve(n int) {
	if cap(s.Points) >= n {
		return
	}
	pts := make([]Point, len(s.Points), n)
	copy(pts, s.Points)
	s.Points = pts
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Points) }

// At returns the value in effect at time t: the latest observation with
// timestamp <= t, or 0 before the first observation. Series are recorded in
// time order.
func (s *Series) At(t sim.Time) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Recorder collects named series, with optional periodic sampling. Only a
// traced scenario has one: a traceless run (what campaign workers execute,
// where nobody reads the series) holds no recorder, so its event calendar
// carries no sampling events and no series memory is spent.
type Recorder struct {
	eng    *sim.Engine
	series map[string]*Series
	order  []*Series // registration order, WriteCSV's column order
	ticker *sim.Ticker
	gauges []gauge
}

type gauge struct {
	series *Series // resolved once at registration; sampling skips the map
	fn     func() float64
}

// NewRecorder returns an empty recorder bound to the engine.
func NewRecorder(eng *sim.Engine) *Recorder {
	return &Recorder{eng: eng, series: map[string]*Series{}}
}

// Series returns (creating if needed) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, s)
	}
	return s
}

// Gauge registers a sampled quantity; once Sample is started, every tick
// appends fn() to the named series.
func (r *Recorder) Gauge(name string, fn func() float64) {
	r.gauges = append(r.gauges, gauge{series: r.Series(name), fn: fn})
}

// Sample starts periodic sampling of all registered gauges. Each tick reads
// every gauge into its pre-resolved series — no name lookups, no boxing.
func (r *Recorder) Sample(period sim.Duration) {
	r.StopSampling()
	r.ticker = sim.NewTicker(r.eng, period, func() {
		now := r.eng.Now()
		for _, g := range r.gauges {
			g.series.Add(now, g.fn())
		}
	})
	r.ticker.Start()
}

// ReserveSamples pre-sizes every registered gauge's series for n upcoming
// samples, so a run of known length appends without growth reallocations.
func (r *Recorder) ReserveSamples(n int) {
	for _, g := range r.gauges {
		g.series.Reserve(g.series.Len() + n)
	}
}

// StopSampling halts periodic sampling.
func (r *Recorder) StopSampling() {
	if r.ticker != nil {
		r.ticker.Stop()
	}
}

// WriteCSV renders every series, in registration order, as aligned rows on
// a shared time grid: the union of all timestamps, with each series
// contributing its latest-at-or-before value (step interpolation).
func (r *Recorder) WriteCSV(w io.Writer) error {
	// Collect the union of timestamps.
	tset := map[sim.Time]struct{}{}
	names := make([]string, len(r.order))
	for i, s := range r.order {
		names[i] = s.Name
		for _, p := range s.Points {
			tset[p.T] = struct{}{}
		}
	}
	times := make([]sim.Time, 0, len(tset))
	for t := range tset {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	if _, err := fmt.Fprintf(w, "seconds,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for _, t := range times {
		row := make([]string, 0, len(names)+1)
		row = append(row, fmt.Sprintf("%.6f", t.Seconds()))
		for _, s := range r.order {
			row = append(row, fmt.Sprintf("%g", s.At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
