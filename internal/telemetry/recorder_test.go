package telemetry

import (
	"bytes"
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

func TestRecorderZeroAllocsPerEvent(t *testing.T) {
	r := NewFlightRecorder(64)
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(sim.Time(i), KindCwnd, 1, -1, i, i+1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record allocates: %v allocs/event, want 0", allocs)
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
