// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event calendar (priority queue), resettable timers,
// periodic tickers and a seeded random number generator. Everything in the
// repository runs on virtual time so that every experiment is exactly
// reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, measured in nanoseconds since the
// start of the simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of virtual time. It is an alias for time.Duration so
// the standard constants (time.Millisecond, ...) can be used directly.
type Duration = time.Duration

// Infinity is a sentinel instant later than any schedulable event.
const Infinity Time = 1<<63 - 1

// At converts a duration since the epoch into an instant.
func At(d time.Duration) Time { return Time(d) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration returns the instant as a duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the instant in seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the instant as a duration since the epoch.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return fmt.Sprintf("t=%v", time.Duration(t))
}
