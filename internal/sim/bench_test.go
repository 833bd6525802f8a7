package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineScheduleRun measures raw event throughput: schedule and
// execute chains of events (the workload TCP timers and ticks produce),
// on each calendar backend.
func BenchmarkEngineScheduleRun(b *testing.B) {
	for _, backend := range []string{"heap", "ladder"} {
		b.Run(backend, func(b *testing.B) {
			eng := NewEngine()
			eng.UseLadder(backend == "ladder")
			if got := eng.SchedStats().Backend; got != backend {
				b.Fatalf("engine runs on the %s calendar, want %s", got, backend)
			}
			n := 0
			var next func()
			next = func() {
				n++
				if n < b.N {
					eng.ScheduleAfter(time.Microsecond, next)
				}
			}
			b.ResetTimer()
			eng.ScheduleAfter(time.Microsecond, next)
			eng.Run()
		})
	}
}

// BenchmarkEngineMixed measures each calendar backend under a realistic mix
// of out-of-order schedules and cancellations.
func BenchmarkEngineMixed(b *testing.B) {
	for _, backend := range []string{"heap", "ladder"} {
		b.Run(backend, func(b *testing.B) {
			eng := NewEngine()
			eng.UseLadder(backend == "ladder")
			if got := eng.SchedStats().Backend; got != backend {
				b.Fatalf("engine runs on the %s calendar, want %s", got, backend)
			}
			rng := NewRNG(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := eng.Schedule(eng.Now().Add(time.Duration(rng.Intn(1000))*time.Microsecond), func() {})
				if rng.Bool(0.3) {
					eng.Cancel(ev)
				}
				if i%64 == 0 {
					eng.RunFor(100 * time.Microsecond)
				}
			}
			eng.Run()
		})
	}
}

// BenchmarkTimerRearm measures the TCP RTO pattern: arm/re-arm on every ACK.
func BenchmarkTimerRearm(b *testing.B) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Arm(time.Second)
		if i%32 == 0 {
			eng.RunFor(time.Microsecond)
		}
	}
}

// BenchmarkRNGUint64 measures the generator itself.
func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}
