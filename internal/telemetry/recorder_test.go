package telemetry

import (
	"bytes"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"rsstcp/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewFlightRecorder(4)
	if r.Cap() != 4 || r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("fresh recorder: cap=%d len=%d total=%d", r.Cap(), r.Len(), r.Total())
	}
	r.Record(sim.Time(10), KindCwnd, 1, -1, 1448, 2896)
	r.Record(sim.Time(20), KindRTO, 1, -1, 0, 1448)
	if r.Len() != 2 || r.Total() != 2 || r.Evicted() != 0 {
		t.Fatalf("after 2 records: len=%d total=%d evicted=%d", r.Len(), r.Total(), r.Evicted())
	}
	want := `{"t_ns":10,"kind":"cwnd","flow":1,"hop":-1,"a":1448,"b":2896}
{"t_ns":20,"kind":"rto","flow":1,"hop":-1,"a":0,"b":1448}
`
	if got := string(r.AppendJSONL(nil)); got != want {
		t.Fatalf("held events:\ngot  %q\nwant %q", got, want)
	}
}

func TestRecorderWrapOldestFirst(t *testing.T) {
	r := NewFlightRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(sim.Time(i), KindHopDrop, 0, 0, int64(i), 0)
	}
	if r.Len() != 3 || r.Total() != 7 || r.Evicted() != 4 {
		t.Fatalf("wrap accounting: len=%d total=%d evicted=%d", r.Len(), r.Total(), r.Evicted())
	}
	want := `{"t_ns":4,"kind":"hop-drop","flow":0,"hop":0,"a":4,"b":0}
{"t_ns":5,"kind":"hop-drop","flow":0,"hop":0,"a":5,"b":0}
{"t_ns":6,"kind":"hop-drop","flow":0,"hop":0,"a":6,"b":0}
`
	if got := string(r.AppendJSONL(nil)); got != want {
		t.Fatalf("oldest-first after wrap:\ngot  %q\nwant %q", got, want)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewFlightRecorder(2)
	r.Record(sim.Time(1), KindStall, 0, -1, 0, 0)
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("reset: len=%d total=%d", r.Len(), r.Total())
	}
	if got := r.AppendJSONL(nil); len(got) != 0 {
		t.Fatalf("reset left events: %q", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(sim.Time(1), KindCwnd, 0, 0, 0, 0) // must not panic
	r.Reset()
	if r.Cap() != 0 || r.Len() != 0 || r.Total() != 0 || r.Evicted() != 0 {
		t.Fatal("nil recorder not empty")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if out := r.AppendJSONL(nil); out != nil {
		t.Fatalf("nil AppendJSONL: %q", out)
	}
}

func TestRecorderJSONL(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(sim.Time(1234567), KindRTO, 1, -1, 2896, 43440)
	r.Record(sim.Time(2000000), KindHopDrop, 2, 3, 99, 250)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t_ns":1234567,"kind":"rto","flow":1,"hop":-1,"a":2896,"b":43440}
{"t_ns":2000000,"kind":"hop-drop","flow":2,"hop":3,"a":99,"b":250}
`
	if buf.String() != want {
		t.Fatalf("JSONL mismatch:\ngot  %q\nwant %q", buf.String(), want)
	}
	if got := string(r.AppendJSONL(nil)); got != want {
		t.Fatalf("AppendJSONL mismatch: %q", got)
	}
}

// TestRecorderZeroAllocsPerEvent fills the ring to capacity first, so the
// measured records are the steady state every long run settles into.
func TestRecorderZeroAllocsPerEvent(t *testing.T) {
	r := NewFlightRecorder(64)
	var i int64
	for ; i < int64(r.Cap()); i++ {
		r.Record(sim.Time(i), KindCwnd, 1, -1, i, i+1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(sim.Time(i), KindCwnd, 1, -1, i, i+1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record allocates: %v allocs/event, want 0", allocs)
	}
}

// fixedRing is the recorder as it was before its buffer grew by use: the
// whole capacity allocated up front, every record written at n % cap.
type fixedRing struct {
	buf []Event
	n   uint64
}

func (f *fixedRing) record(ev Event) {
	f.buf[f.n%uint64(len(f.buf))] = ev
	f.n++
}

// jsonl encodes the ring's events oldest-first in the recorder's line
// format, written out independently of the recorder's encoder.
func (f *fixedRing) jsonl() []byte {
	capN := uint64(len(f.buf))
	start, n := uint64(0), f.n
	if f.n > capN {
		start, n = f.n%capN, capN
	}
	var out bytes.Buffer
	for i := uint64(0); i < n; i++ {
		ev := f.buf[(start+i)%capN]
		fmt.Fprintf(&out, "{\"t_ns\":%d,\"kind\":%q,\"flow\":%d,\"hop\":%d,\"a\":%d,\"b\":%d}\n",
			int64(ev.T), ev.Kind.String(), ev.Flow, ev.Hop, ev.A, ev.B)
	}
	return out.Bytes()
}

// TestRecorderMatchesFixedRing holds the growing ring to a plain fixed ring
// at capacities on both sides of the first buffer and its doublings, for
// record counts around each wrap, each after a Reset of the same recorder.
func TestRecorderMatchesFixedRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 16, 17, 2048} {
		r := NewFlightRecorder(capacity)
		for _, count := range []int{0, 1, capacity - 1, capacity, capacity + 1, 2 * capacity, 2*capacity + 1, 3*capacity + 5} {
			r.Reset()
			f := &fixedRing{buf: make([]Event, capacity)}
			for i := 0; i < count; i++ {
				ev := Event{T: sim.Time(i), Kind: Kind(1 + i%int(kindCount-1)), Flow: int32(i % 7), Hop: int32(i%3 - 1), A: int64(i), B: -int64(i)}
				r.Record(ev.T, ev.Kind, ev.Flow, ev.Hop, ev.A, ev.B)
				f.record(ev)
			}
			held := min(f.n, uint64(capacity))
			if r.Cap() != capacity || uint64(r.Len()) != held || r.Total() != f.n || r.Evicted() != f.n-held {
				t.Fatalf("cap %d, %d records: cap=%d len=%d total=%d evicted=%d, want len %d total %d",
					capacity, count, r.Cap(), r.Len(), r.Total(), r.Evicted(), held, f.n)
			}
			var got bytes.Buffer
			if err := r.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			want := f.jsonl()
			if !bytes.Equal(got.Bytes(), want) || !bytes.Equal(r.AppendJSONL(nil), want) {
				t.Fatalf("cap %d, %d records: JSONL differs from the fixed ring's\ngot  %q\nwant %q", capacity, count, got.Bytes(), want)
			}
		}
	}
}

// TestRecorderGrowthAllocs bounds what the ring allocates: one buffer per
// doubling while it grows (at most ceil(log2(cap))+1), nothing once it is
// full, and nothing on a run after Reset that records as much again.
func TestRecorderGrowthAllocs(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 16, 17, 2048} {
		var r *FlightRecorder
		fill := func(n int) {
			for i := 0; i < n; i++ {
				r.Record(sim.Time(i), KindCwnd, 1, -1, int64(i), 0)
			}
		}
		growing := testing.AllocsPerRun(20, func() { r = NewFlightRecorder(capacity); fill(capacity) })
		// The bound counts the recorder itself besides its buffers.
		if bound := float64(bits.Len(uint(capacity-1)) + 2); growing > bound {
			t.Errorf("cap %d: a new recorder growing to capacity allocates %v times, want <= %v", capacity, growing, bound)
		}
		if full := testing.AllocsPerRun(10, func() { fill(capacity + 1) }); full != 0 {
			t.Errorf("cap %d: records into a full ring allocate %v times, want 0", capacity, full)
		}
		if again := testing.AllocsPerRun(10, func() { r.Reset(); fill(3*capacity + 5) }); again != 0 {
			t.Errorf("cap %d: a run after Reset allocates %v times, want 0", capacity, again)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindNone; k < kindCount; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("kind %d has no interned name", k)
		}
		if strings.ContainsAny(s, `"\`) {
			t.Fatalf("kind name %q needs JSON escaping", s)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should be unknown")
	}
}
