// Package workload drives simulated applications: bulk transfers, chunked
// (application-limited) sources and on-off cross traffic. Arrival processes
// live in internal/lifecycle. Generators talk to senders through the small
// App interface so they stay independent of the TCP machinery.
package workload

import (
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// App is the application side of a sender: make bytes available, declare
// the end of the stream. tcp.Sender satisfies it.
type App interface {
	Supply(n int64)
	Close()
}

// Bulk makes the entire transfer available immediately — the paper's
// workload: a single greedy memory-to-memory stream.
func Bulk(app App, bytes int64) {
	app.Supply(bytes)
	app.Close()
}

// Unbounded keeps the sender permanently backlogged; use for timed
// experiments where the run duration, not a byte count, ends the transfer.
func Unbounded(app App) {
	app.Supply(1 << 62)
}

// Chunked supplies fixed-size chunks on a fixed period, modelling an
// application-limited source (e.g. a disk reader). It closes the app after
// the final chunk.
type Chunked struct {
	eng       *sim.Engine
	app       App
	chunk     int64
	period    time.Duration
	remaining int64
	stepFn    func() // bound once; periodic rescheduling allocates nothing
}

// NewChunked builds a chunked source delivering total bytes in chunk-sized
// supplies every period.
func NewChunked(eng *sim.Engine, app App, total, chunk int64, period time.Duration) *Chunked {
	if chunk <= 0 || total <= 0 || period <= 0 {
		panic("workload: NewChunked requires positive total, chunk and period")
	}
	c := &Chunked{eng: eng, app: app, chunk: chunk, period: period, remaining: total}
	c.stepFn = c.step
	return c
}

// Start begins supplying; the first chunk is immediate.
func (c *Chunked) Start() { c.step() }

func (c *Chunked) step() {
	n := c.chunk
	if n > c.remaining {
		n = c.remaining
	}
	c.app.Supply(n)
	c.remaining -= n
	if c.remaining <= 0 {
		c.app.Close()
		return
	}
	c.eng.ScheduleAfter(c.period, c.stepFn)
}

// OnOff alternates between an active phase, during which it supplies at a
// target rate in MSS-sized parcels, and a silent phase. Classic bursty
// cross traffic.
type OnOff struct {
	eng      *sim.Engine
	app      App
	on, off  time.Duration
	rate     unit.Bandwidth
	parcel   int64
	active   bool
	stopped  bool
	toggleEv sim.Event
	pumpEv   sim.Event
	toggleFn func() // bound once; phase flips allocate nothing
	pumpFn   func() // bound once; per-parcel rescheduling allocates nothing
}

// NewOnOff builds an on-off source. parcel is the supply granularity in
// bytes (e.g. one MSS).
func NewOnOff(eng *sim.Engine, app App, on, off time.Duration, rate unit.Bandwidth, parcel int64) *OnOff {
	if on <= 0 || off < 0 || rate <= 0 || parcel <= 0 {
		panic("workload: NewOnOff requires positive on, rate, parcel and non-negative off")
	}
	o := &OnOff{eng: eng, app: app, on: on, off: off, rate: rate, parcel: parcel}
	o.toggleFn = o.toggle
	o.pumpFn = o.pump
	return o
}

// Start enters the first active phase immediately.
func (o *OnOff) Start() {
	o.active = true
	o.toggleEv = o.eng.ScheduleAfter(o.on, o.toggleFn)
	o.pump()
}

// Stop ends the source permanently and cancels its pending toggle and pump
// entries, so a stopped (e.g. detached) source leaves no live calendar
// entries behind. The app is not closed; timed experiments read counters
// instead.
func (o *OnOff) Stop() {
	if o.stopped {
		return
	}
	o.stopped = true
	o.eng.Cancel(o.toggleEv)
	o.eng.Cancel(o.pumpEv)
}

// Active reports whether the source is currently in an on phase.
func (o *OnOff) Active() bool { return o.active && !o.stopped }

func (o *OnOff) toggle() {
	if o.stopped {
		return
	}
	o.active = !o.active
	next := o.off
	if o.active {
		next = o.on
		o.pump()
	}
	o.toggleEv = o.eng.ScheduleAfter(next, o.toggleFn)
}

func (o *OnOff) pump() {
	if o.stopped || !o.active {
		return
	}
	o.app.Supply(o.parcel)
	interval := o.rate.Serialization(unit.ByteSize(o.parcel))
	o.pumpEv = o.eng.ScheduleAfter(interval, o.pumpFn)
}
