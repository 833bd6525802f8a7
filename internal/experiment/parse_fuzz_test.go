package experiment_test

import (
	"math"
	"testing"
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// The command line's -hop and -rev parsers are campaign's; these targets hold
// what they accept to this package's Topology.Validate, with the corpora
// under testdata/fuzz.

// FuzzParseHop: the -hop parser never panics, and a hop it accepts holds
// only finite values and passes Topology.Validate as it stands — unless its
// delay is over half a duration's range, which a hop may have but a path of
// it alone may not (its round trip overflows).
func FuzzParseHop(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		h, err := campaign.ParseHop(s)
		if err != nil {
			return
		}
		for _, v := range []float64{h.Loss, h.ReorderP, h.DuplicateP} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q accepted with a non-finite value: %+v", s, h)
			}
		}
		err = (experiment.Topology{Hops: []experiment.Hop{h}}).Validate()
		if err != nil && h.Delay <= math.MaxInt64/2 {
			t.Fatalf("%q accepted as %+v, which Validate rejects: %v", s, h, err)
		}
	})
}

// FuzzParseReverse: likewise for -rev, validated behind a stock 1 ms hop,
// which a reverse delay within 1 ms of a duration's range overflows.
func FuzzParseReverse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		r, err := campaign.ParseReverse(s)
		if err != nil {
			return
		}
		hop := experiment.Hop{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50}
		err = (experiment.Topology{Hops: []experiment.Hop{hop}, Reverse: r}).Validate()
		if err != nil && r.Delay <= math.MaxInt64-time.Millisecond {
			t.Fatalf("%q accepted as %+v, which Validate rejects: %v", s, r, err)
		}
	})
}
