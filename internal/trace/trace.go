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

// Last returns the most recent observation (zero Point when empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

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

// Recorder collects named series, with optional periodic sampling. A
// recorder can be disabled (SetEnabled(false)): gauge registrations are
// dropped and Sample never starts its ticker — the traceless mode campaign
// workers run in, where nobody reads the series and a million-run sweep
// should not spend time or memory producing them.
type Recorder struct {
	eng      *sim.Engine
	series   map[string]*Series
	order    []string
	ticker   *sim.Ticker
	gauges   []gauge
	disabled bool
	// spare holds series retired by Reset: their buffers are revived if
	// the rebuilt scenario registers the same name, but they no longer
	// appear in Lookup or Names — a reused recorder must not report a
	// previous configuration's series as this run's.
	spare map[string]*Series
}

type gauge struct {
	series *Series // resolved once at registration; sampling skips the map
	fn     func() float64
}

// NewRecorder returns an empty recorder bound to the engine.
func NewRecorder(eng *sim.Engine) *Recorder {
	return &Recorder{eng: eng, series: map[string]*Series{}}
}

// SetEnabled toggles recording. Disabling affects future registrations and
// sampling only; series already recorded remain readable.
func (r *Recorder) SetEnabled(on bool) { r.disabled = !on }

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return !r.disabled }

// Reset clears the recorder for a fresh run of a rebuilt scenario: sampling
// stops, gauge registrations are dropped (the rebuild re-registers its own),
// and every series is retired — emptied but parked with its backing
// capacity, revived only if the new configuration records the same name. A
// reset recorder therefore looks exactly like a fresh one to Lookup and
// Names (no stale series from a previous shape), while same-shape reuse
// (campaign replicates) samples without re-growing any buffer.
func (r *Recorder) Reset() {
	r.StopSampling()
	r.ticker = nil
	r.gauges = r.gauges[:0]
	if r.spare == nil {
		r.spare = map[string]*Series{}
	}
	for name, s := range r.series {
		s.Points = s.Points[:0]
		r.spare[name] = s
		delete(r.series, name)
	}
	r.order = r.order[:0]
}

// Series returns (creating if needed) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		if sp := r.spare[name]; sp != nil {
			s = sp
			delete(r.spare, name)
		} else {
			s = &Series{Name: name}
		}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Record appends an observation to the named series at the current time.
func (r *Recorder) Record(name string, v float64) {
	r.Series(name).Add(r.eng.Now(), v)
}

// Lookup returns the named series, or nil if nothing was recorded under the
// name — unlike Series it never creates one. Readers that must distinguish
// "never recorded" (a traceless run) from "recorded but empty" use it.
func (r *Recorder) Lookup(name string) *Series { return r.series[name] }

// Gauge registers a sampled quantity; once Sample is started, every tick
// appends fn() to the named series. On a disabled recorder the registration
// is dropped.
func (r *Recorder) Gauge(name string, fn func() float64) {
	if r.disabled {
		return
	}
	r.gauges = append(r.gauges, gauge{series: r.Series(name), fn: fn})
}

// Sample starts periodic sampling of all registered gauges. Each tick reads
// every gauge into its pre-resolved series — no name lookups, no boxing.
// A disabled recorder never starts the ticker, so a traceless run's event
// calendar carries no sampling events at all.
func (r *Recorder) Sample(period sim.Duration) {
	if r.disabled {
		return
	}
	if r.ticker != nil {
		r.ticker.Stop()
	}
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

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	return append([]string(nil), r.order...)
}

// WriteCSV renders the named series as aligned rows on a shared time grid:
// the union of all timestamps, with each series contributing its
// latest-at-or-before value (step interpolation).
func (r *Recorder) WriteCSV(w io.Writer, names ...string) error {
	if len(names) == 0 {
		names = r.order
	}
	// Collect the union of timestamps.
	tset := map[sim.Time]struct{}{}
	for _, n := range names {
		s, ok := r.series[n]
		if !ok {
			return fmt.Errorf("trace: unknown series %q", n)
		}
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
		for _, n := range names {
			row = append(row, fmt.Sprintf("%g", r.series[n].At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
