package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestSegmentSizeClass pins a segment to Go's 96-B size class (…, 80, 96,
// 112, 128 B): every packet in flight is one, so a field that pushes it over
// costs 16 B per queued or propagating segment.
func TestSegmentSizeClass(t *testing.T) {
	const sizeClass = 96
	if got := unsafe.Sizeof(Segment{}); got > sizeClass {
		t.Errorf("Segment is %d B, over the %d-B size class", got, sizeClass)
	}
}

func TestFlagsHas(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || !f.Has(FlagSYN|FlagACK) {
		t.Error("Has missed set bits")
	}
	if f.Has(FlagFIN) || f.Has(FlagACK|FlagFIN) {
		t.Error("Has reported unset bits")
	}
}

func TestFlagsString(t *testing.T) {
	cases := []struct {
		f    Flags
		want string
	}{
		{FlagSYN, "S"},
		{FlagSYN | FlagACK, "S."},
		{FlagFIN | FlagACK, "F."},
		{FlagACK, "."},
		{0, "-"},
		{FlagRST, "R"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("Flags(%b).String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestSegmentEndAndSize(t *testing.T) {
	s := &Segment{Seq: 1000, Len: 1448}
	if s.End() != 2448 {
		t.Errorf("End = %d, want 2448", s.End())
	}
	if s.Size() != 1448+HeaderBytes {
		t.Errorf("Size = %d, want %d", s.Size(), 1448+HeaderBytes)
	}
	if !s.IsData() {
		t.Error("data segment not IsData")
	}
}

func TestPureAckClassification(t *testing.T) {
	ack := &Segment{Flags: FlagACK, Ack: 100}
	if !ack.IsPureAck() {
		t.Error("pure ACK not classified")
	}
	if ack.IsData() {
		t.Error("pure ACK classified as data")
	}
	synack := &Segment{Flags: FlagSYN | FlagACK}
	if synack.IsPureAck() {
		t.Error("SYN|ACK classified as pure ACK")
	}
	data := &Segment{Flags: FlagACK, Len: 10}
	if data.IsPureAck() {
		t.Error("data segment classified as pure ACK")
	}
	fin := &Segment{Flags: FlagFIN | FlagACK}
	if fin.IsPureAck() {
		t.Error("FIN|ACK classified as pure ACK")
	}
}

func TestSACKBlock(t *testing.T) {
	b := SACKBlock{Start: 100, End: 200}
	if b.Len() != 100 {
		t.Errorf("Len = %d, want 100", b.Len())
	}
	if !b.Contains(100) || !b.Contains(199) {
		t.Error("Contains missed interior points")
	}
	if b.Contains(99) || b.Contains(200) {
		t.Error("Contains included exterior points")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := &Segment{Seq: 1, Len: 2, SACK: []SACKBlock{{10, 20}}}
	c := s.Clone()
	c.SACK[0].Start = 99
	c.Seq = 42
	if s.SACK[0].Start != 10 {
		t.Error("Clone shares SACK storage")
	}
	if s.Seq != 1 {
		t.Error("Clone shares scalar fields")
	}
}

func TestSegmentEndProperty(t *testing.T) {
	err := quick.Check(func(seq int32, ln uint16) bool {
		s := &Segment{Seq: int64(seq), Len: int(ln)}
		return s.End()-s.Seq == int64(s.Len)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestStringIncludesFlowAndSeq(t *testing.T) {
	s := &Segment{Flow: 3, Seq: 500, Len: 100, Ack: 7, Flags: FlagACK, Wnd: 65535}
	got := s.String()
	for _, sub := range []string{"flow=3", "seq=500", "len=100", "ack=7"} {
		if !contains(got, sub) {
			t.Errorf("String() = %q missing %q", got, sub)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
