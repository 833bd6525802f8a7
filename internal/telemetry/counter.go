package telemetry

import "sync/atomic"

// Counter is a monotonically increasing count, safe for concurrent use.
// Campaign workers increment counters from many goroutines while the
// progress epilogue and the -telemetry snapshot read them, so all access is
// atomic.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Callers own the monotonicity of their own counters: Add does
// not reject n < 0.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }
