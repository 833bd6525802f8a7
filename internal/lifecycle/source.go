package lifecycle

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rsstcp/internal/sim"
)

// FlowSource is an arrival process: Start schedules flow births on the
// engine, invoking launch once per arrival, until Stop. Implementations
// draw gaps only from the RNG they are started with, keep at most a
// handful of live calendar entries, and cancel every one of them in Stop —
// a stopped source leaves the calendar exactly as it found it.
//
// Rate reports the long-run arrival rate in flows/sec and Span the lowest
// and highest rates the process draws arrival gaps at; WithRate returns a
// copy rescaled to the given rate (the load axis uses it to convert an
// offered-load fraction into arrivals) and panics, like the constructors,
// when CheckRate refuses a rescaled rate.
type FlowSource interface {
	Start(eng *sim.Engine, rng *sim.RNG, launch func())
	Stop()
	Rate() float64
	Span() (lo, hi float64)
	WithRate(r float64) FlowSource
}

// CheckRate reports why r (flows/sec) cannot be an arrival rate: not positive
// (or NaN), or above 1e9. The calendar resolves 1 ns: a mean gap below that
// truncates to zero and the source re-arms at the same instant, so simulated
// time stops advancing. Single zero gaps are legitimate and are not clamped.
func CheckRate(r float64) error {
	if !(r > 0 && r <= 1e9) {
		return fmt.Errorf("rate %g/s outside (0, 1e9]: arrivals are scheduled at 1 ns resolution", r)
	}
	return nil
}

// expGap converts a mean-1 exponential draw into a calendar gap at the
// given rate (events/sec), saturating instead of overflowing for
// pathologically small rates.
func expGap(rng *sim.RNG, perSecond float64) sim.Duration {
	gap := rng.ExpFloat64() / perSecond * float64(time.Second)
	if gap > float64(1<<62) {
		return 1 << 62
	}
	return sim.Duration(gap)
}

// Poisson is a memoryless arrival process: independent exponential gaps at
// PerSecond flows/sec.
type Poisson struct {
	PerSecond float64

	eng     *sim.Engine
	rng     *sim.RNG
	launch  func()
	ev      sim.Event
	stopped bool
}

// NewPoisson returns a Poisson source at the given rate (flows/sec).
func NewPoisson(perSecond float64) *Poisson {
	if err := CheckRate(perSecond); err != nil {
		panic("lifecycle: Poisson " + err.Error())
	}
	return &Poisson{PerSecond: perSecond}
}

// Start schedules the first arrival one drawn gap from now.
func (p *Poisson) Start(eng *sim.Engine, rng *sim.RNG, launch func()) {
	p.eng, p.rng, p.launch, p.stopped = eng, rng, launch, false
	p.ev = eng.ScheduleArgAfter(expGap(rng, p.PerSecond), poissonArrive, p)
}

func poissonArrive(p any) { p.(*Poisson).arrive() }

func (p *Poisson) arrive() {
	if p.stopped {
		return
	}
	p.launch()
	p.ev = p.eng.ScheduleArgAfter(expGap(p.rng, p.PerSecond), poissonArrive, p)
}

// Stop cancels the pending arrival; no further launches occur.
func (p *Poisson) Stop() {
	if p.stopped || p.eng == nil {
		return
	}
	p.stopped = true
	p.eng.Cancel(p.ev)
}

// Rate returns the arrival rate in flows/sec; Span is that rate twice.
func (p *Poisson) Rate() float64          { return p.PerSecond }
func (p *Poisson) Span() (lo, hi float64) { return p.PerSecond, p.PerSecond }

// WithRate returns a fresh Poisson source at the given rate.
func (p *Poisson) WithRate(r float64) FlowSource { return NewPoisson(r) }

// MMPP is a two-phase Markov-modulated Poisson process: arrivals are
// Poisson at Lo or Hi flows/sec depending on the current phase, and the
// phase flips after exponentially distributed sojourns with mean Sojourn.
// It produces the bursty arrival patterns Poisson cannot — quiet stretches
// punctuated by arrival storms — while staying fully deterministic per
// seed.
type MMPP struct {
	Lo, Hi  float64
	Sojourn sim.Duration

	eng        *sim.Engine
	rng        *sim.RNG
	launch     func()
	ev         sim.Event
	stopped    bool
	phaseHi    bool
	phaseUntil sim.Time
}

// NewMMPP returns a two-phase MMPP source. Both rates must be positive and
// the mean sojourn nonzero.
func NewMMPP(lo, hi float64, sojourn sim.Duration) *MMPP {
	if err := cmp.Or(CheckRate(lo), CheckRate(hi)); err != nil {
		panic("lifecycle: MMPP " + err.Error())
	}
	if sojourn <= 0 {
		panic("lifecycle: MMPP sojourn must be positive")
	}
	return &MMPP{Lo: lo, Hi: hi, Sojourn: sojourn}
}

// Start begins in the low phase with a freshly drawn sojourn.
func (m *MMPP) Start(eng *sim.Engine, rng *sim.RNG, launch func()) {
	m.eng, m.rng, m.launch, m.stopped = eng, rng, launch, false
	m.phaseHi = false
	m.phaseUntil = eng.Now().Add(expGap(rng, m.flipRate()))
	m.schedule()
}

func (m *MMPP) flipRate() float64 { return 1 / m.Sojourn.Seconds() }

func (m *MMPP) phaseRate() float64 {
	if m.phaseHi {
		return m.Hi
	}
	return m.Lo
}

// schedule draws the next arrival, walking phase boundaries as it goes.
// Crossing a boundary discards the partial gap and redraws at the new
// phase's rate — valid because exponential gaps are memoryless.
func (m *MMPP) schedule() {
	now := m.eng.Now()
	for {
		at := now.Add(expGap(m.rng, m.phaseRate()))
		if at <= m.phaseUntil {
			m.ev = m.eng.ScheduleArg(at, mmppArrive, m)
			return
		}
		now = m.phaseUntil
		m.phaseHi = !m.phaseHi
		m.phaseUntil = now.Add(expGap(m.rng, m.flipRate()))
	}
}

func mmppArrive(m any) { m.(*MMPP).arrive() }

func (m *MMPP) arrive() {
	if m.stopped {
		return
	}
	m.launch()
	m.schedule()
}

// Stop cancels the pending arrival; no further launches occur.
func (m *MMPP) Stop() {
	if m.stopped || m.eng == nil {
		return
	}
	m.stopped = true
	m.eng.Cancel(m.ev)
}

// Rate returns the long-run average arrival rate: the phases have equal
// mean sojourn, so the process spends half its time in each.
func (m *MMPP) Rate() float64 { return (m.Lo + m.Hi) / 2 }

// Span returns the slower and the faster phase's rate.
func (m *MMPP) Span() (lo, hi float64) { return min(m.Lo, m.Hi), max(m.Lo, m.Hi) }

// WithRate returns a fresh MMPP with both phase rates scaled so the
// average hits r; the burstiness ratio Hi/Lo and the sojourn are kept.
func (m *MMPP) WithRate(r float64) FlowSource {
	scale := r / m.Rate()
	return NewMMPP(m.Lo*scale, m.Hi*scale, m.Sojourn)
}

// WebSession models on/off web-style traffic: sessions arrive Poisson at
// SessionsPerSec, and each session issues FlowsPerSession flows separated
// by exponential think times with mean Think. Many sessions overlap, so
// the instantaneous arrival rate swings with session activity.
type WebSession struct {
	SessionsPerSec  float64
	FlowsPerSession int
	Think           sim.Duration

	eng     *sim.Engine
	rng     *sim.RNG
	launch  func()
	ev      sim.Event
	stopped bool
	chains  []*webChain
	spare   []*webChain
}

// webChain is one live session's pending-flow state: its next scheduled
// flow and how many remain after it.
type webChain struct {
	src       *WebSession
	remaining int
	ev        sim.Event
	idx       int
}

// NewWebSession returns a web-session source.
func NewWebSession(sessionsPerSec float64, flowsPerSession int, think sim.Duration) *WebSession {
	if err := CheckRate(sessionsPerSec); err != nil {
		panic("lifecycle: session " + err.Error())
	}
	if flowsPerSession < 1 {
		panic("lifecycle: flows per session must be ≥ 1")
	}
	if think <= 0 {
		panic("lifecycle: think time must be positive")
	}
	return &WebSession{SessionsPerSec: sessionsPerSec, FlowsPerSession: flowsPerSession, Think: think}
}

// Start schedules the first session arrival one drawn gap from now.
func (w *WebSession) Start(eng *sim.Engine, rng *sim.RNG, launch func()) {
	w.eng, w.rng, w.launch, w.stopped = eng, rng, launch, false
	w.chains = w.chains[:0]
	w.ev = eng.ScheduleArgAfter(expGap(rng, w.SessionsPerSec), webSession, w)
}

func webSession(w any) { w.(*WebSession).session() }

// session fires on each session arrival: the first flow launches
// immediately, the rest follow as an independent think-time chain.
func (w *WebSession) session() {
	if w.stopped {
		return
	}
	w.launch()
	if w.FlowsPerSession > 1 {
		c := w.getChain()
		c.remaining = w.FlowsPerSession - 1
		c.ev = w.eng.ScheduleArgAfter(expGap(w.rng, 1/w.Think.Seconds()), webStep, c)
	}
	w.ev = w.eng.ScheduleArgAfter(expGap(w.rng, w.SessionsPerSec), webSession, w)
}

func (w *WebSession) getChain() *webChain {
	var c *webChain
	if n := len(w.spare); n > 0 {
		c, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		c = &webChain{src: w}
	}
	c.idx = len(w.chains)
	w.chains = append(w.chains, c)
	return c
}

// dropChain swap-removes a finished chain and parks it for reuse.
func (w *WebSession) dropChain(c *webChain) {
	last := len(w.chains) - 1
	w.chains[c.idx] = w.chains[last]
	w.chains[c.idx].idx = c.idx
	w.chains = w.chains[:last]
	w.spare = append(w.spare, c)
}

func webStep(c any) { c.(*webChain).step() }

func (c *webChain) step() {
	w := c.src
	if w.stopped {
		return
	}
	w.launch()
	c.remaining--
	if c.remaining == 0 {
		w.dropChain(c)
		return
	}
	c.ev = w.eng.ScheduleArgAfter(expGap(w.rng, 1/w.Think.Seconds()), webStep, c)
}

// Stop cancels the session arrival and every live chain's pending flow.
func (w *WebSession) Stop() {
	if w.stopped || w.eng == nil {
		return
	}
	w.stopped = true
	w.eng.Cancel(w.ev)
	for _, c := range w.chains {
		w.eng.Cancel(c.ev)
		w.spare = append(w.spare, c)
	}
	w.chains = w.chains[:0]
}

// Rate returns the long-run flow arrival rate: sessions/sec × flows each.
func (w *WebSession) Rate() float64 {
	return w.SessionsPerSec * float64(w.FlowsPerSession)
}

// Span returns the session rate twice, the one gap rate WithRate scales.
func (w *WebSession) Span() (lo, hi float64) { return w.SessionsPerSec, w.SessionsPerSec }

// WithRate returns a fresh source with the session rate scaled so the
// aggregate flow rate hits r; flows per session and think time are kept.
func (w *WebSession) WithRate(r float64) FlowSource {
	return NewWebSession(r/float64(w.FlowsPerSession), w.FlowsPerSession, w.Think)
}

// ParseSource builds a FlowSource from its colon-separated spec:
//
//	poisson:RATE            memoryless arrivals at RATE flows/sec
//	mmpp:LO:HI:SOJOURN      two-phase bursty arrivals (e.g. mmpp:20:200:500ms)
//	web:SESSIONS:FLOWS:THINK  web sessions (e.g. web:5:8:2s)
//
// Rates must be finite and pass CheckRate: NaN slips past an ordered range
// check, and a rate finer than the calendar draws zero-length gaps forever.
func ParseSource(spec string) (FlowSource, error) {
	parts := strings.Split(spec, ":")
	bad := func(format string, args ...any) (FlowSource, error) {
		return nil, fmt.Errorf("arrival spec %q: %s", spec, fmt.Sprintf(format, args...))
	}
	switch parts[0] {
	case "poisson":
		if len(parts) != 2 {
			return bad("want poisson:RATE")
		}
		r, err := ParseFinite(parts[1])
		if err = cmp.Or(err, CheckRate(r)); err != nil {
			return bad("bad rate %q: %v", parts[1], err)
		}
		return NewPoisson(r), nil
	case "mmpp":
		if len(parts) != 4 {
			return bad("want mmpp:LO:HI:SOJOURN")
		}
		lo, err := ParseFinite(parts[1])
		if err = cmp.Or(err, CheckRate(lo)); err != nil {
			return bad("bad low rate %q: %v", parts[1], err)
		}
		hi, err := ParseFinite(parts[2])
		if err = cmp.Or(err, CheckRate(hi)); err != nil {
			return bad("bad high rate %q: %v", parts[2], err)
		}
		soj, err := time.ParseDuration(parts[3])
		if err != nil || soj <= 0 {
			return bad("bad sojourn %q", parts[3])
		}
		return NewMMPP(lo, hi, soj), nil
	case "web":
		if len(parts) != 4 {
			return bad("want web:SESSIONS:FLOWS:THINK")
		}
		sess, err := ParseFinite(parts[1])
		if err = cmp.Or(err, CheckRate(sess)); err != nil {
			return bad("bad session rate %q: %v", parts[1], err)
		}
		flows, err := strconv.Atoi(parts[2])
		if err != nil || flows < 1 {
			return bad("bad flows per session %q", parts[2])
		}
		think, err := time.ParseDuration(parts[3])
		if err != nil || think <= 0 {
			return bad("bad think time %q", parts[3])
		}
		return NewWebSession(sess, flows, think), nil
	}
	return bad("unknown process %q (want poisson|mmpp|web)", parts[0])
}
