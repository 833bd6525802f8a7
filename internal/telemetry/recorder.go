package telemetry

import (
	"io"
	"strconv"

	"rsstcp/internal/sim"
)

// DefaultRingSize is the flight-recorder capacity used when a scenario does
// not choose one: large enough to hold the full congestion timeline of a
// pathological run (every RTO, drop and window collapse of a 25 s transfer),
// small enough (up to 80 KiB, held only by runs that record that much) that
// a campaign worker pool of rings stays far inside the streaming-aggregation
// memory budget.
const DefaultRingSize = 2048

// MaxRingSize bounds a recorder's capacity. A capacity arrives from outside
// (a CLI flag, a config file), and one in the billions would ask the
// allocator for hundreds of gigabytes once the ring grew to it.
const MaxRingSize = 1 << 22

// minRing is the first buffer a recorder grows into.
const minRing = 16

// FlightRecorder is a bounded ring of Events. It is always-on and costs
// what a run records: the buffer starts empty, doubles on the record that
// finds it full until it reaches the capacity, and from then on a record
// overwrites the oldest entry without allocating. Records are values. A nil
// *FlightRecorder is a valid no-op recorder, so components outside an
// instrumented scenario record unconditionally without nil checks.
//
// A recorder belongs to one simulation (one logical thread); it is not safe
// for concurrent use — exactly like the engine that feeds it.
type FlightRecorder struct {
	buf   []Event // held events
	limit int     // capacity
	next  int     // once len(buf) == limit: the oldest entry, overwritten next (n % limit)
	n     uint64  // total events ever recorded
}

// NewFlightRecorder returns a ring holding the most recent capacity events
// (DefaultRingSize when capacity <= 0). It allocates no buffer until the
// first record.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &FlightRecorder{limit: capacity}
}

// Record appends an event, overwriting the oldest when full. On a nil
// recorder it is a no-op.
func (r *FlightRecorder) Record(t sim.Time, k Kind, flow, hop int32, a, b int64) {
	if r == nil {
		return
	}
	ev := Event{T: t, Kind: k, Flow: flow, Hop: hop, A: a, B: b}
	switch {
	case len(r.buf) == r.limit:
		r.buf[r.next] = ev
		if r.next++; r.next == r.limit {
			r.next = 0
		}
	case len(r.buf) == cap(r.buf): // double: to minRing at first, never past limit
		grown := make([]Event, 0, min(max(2*cap(r.buf), minRing), r.limit))
		r.buf = append(append(grown, r.buf...), ev)
	default:
		r.buf = append(r.buf, ev)
	}
	r.n++
}

// Reset empties the ring, keeping its buffer. On a nil recorder it is a
// no-op.
func (r *FlightRecorder) Reset() {
	if r == nil {
		return
	}
	r.buf, r.next, r.n = r.buf[:0], 0, 0
}

// Cap returns the ring capacity (0 for a nil recorder), however much of it
// the buffer has grown to.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.limit
}

// Len returns the number of events currently held.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded (held + evicted).
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Evicted returns how many events were overwritten by ring wrap.
func (r *FlightRecorder) Evicted() uint64 {
	return r.Total() - uint64(r.Len())
}

// WriteJSONL dumps the held events oldest-first, one JSON object per line:
//
//	{"t_ns":1234567,"kind":"rto","flow":1,"hop":-1,"a":2896,"b":43440}
//
// The encoding is hand-rolled from interned kind names and integer fields,
// so the bytes are a pure function of the ring contents — identical for a
// fixed seed at any worker count — and dumping needs no reflection.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	var line []byte
	for i := range r.buf {
		ev := &r.buf[(r.next+i)%len(r.buf)] // next is 0 until the ring wraps
		line = line[:0]
		line = append(line, `{"t_ns":`...)
		line = strconv.AppendInt(line, int64(ev.T), 10)
		line = append(line, `,"kind":"`...)
		line = append(line, ev.Kind.String()...)
		line = append(line, `","flow":`...)
		line = strconv.AppendInt(line, int64(ev.Flow), 10)
		line = append(line, `,"hop":`...)
		line = strconv.AppendInt(line, int64(ev.Hop), 10)
		line = append(line, `,"a":`...)
		line = strconv.AppendInt(line, ev.A, 10)
		line = append(line, `,"b":`...)
		line = strconv.AppendInt(line, ev.B, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// AppendJSONL appends the WriteJSONL encoding to dst and returns it — the
// buffer-reuse form campaign workers use to snapshot anomalous runs.
func (r *FlightRecorder) AppendJSONL(dst []byte) []byte {
	if r == nil {
		return dst
	}
	w := appendWriter{buf: &dst}
	_ = r.WriteJSONL(w)
	return dst
}

type appendWriter struct{ buf *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}
