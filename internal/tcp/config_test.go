package tcp

import (
	"reflect"
	"testing"
	"time"

	"rsstcp/internal/packet"
)

// TestFillDefaultsIdempotent: filling a filled config changes no field, so a
// config filled once by its owner and again by anyone holding a copy reads
// the same.
func TestFillDefaultsIdempotent(t *testing.T) {
	rows := []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"default", DefaultConfig()},
		{"negative fields", Config{
			MSS: -1, RcvWnd: -1, AckEvery: -1, DelAckTimeout: -1,
			MinRTO: -1, MaxRTO: -1, InitialRTO: -1, RTOGranularity: -1,
		}},
		{"every field set", Config{
			MSS: 1000, RcvWnd: 1 << 16, AckEvery: 1, DelAckTimeout: time.Millisecond, SACK: true,
			MinRTO: time.Millisecond, MaxRTO: time.Second, InitialRTO: 3 * time.Second,
			RTOGranularity: time.Microsecond, Stall: StallWait, Pool: packet.NewPool(),
			Table: NewFlowTable(1),
		}},
	}
	for _, row := range rows {
		once := row.cfg
		once.fillDefaults()
		twice := once
		twice.fillDefaults()
		// DeepEqual, not ==: OnComplete makes Config incomparable. It is nil
		// in every row, where DeepEqual and == agree.
		if !reflect.DeepEqual(twice, once) {
			t.Errorf("%s: fill(fill(c)) = %+v, fill(c) = %+v", row.name, twice, once)
		}
	}
}
