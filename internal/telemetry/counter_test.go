package telemetry

import (
	"sync"
	"testing"
)

// TestCounterConcurrent: increments from many goroutines, read while they
// run (exercised under -race), lose nothing.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if c.Value() < 0 {
				t.Error("counter went negative")
			}
		}
	}()
	wg.Wait()
	<-done
	c.Add(2)
	if c.Value() != 8002 {
		t.Fatalf("lost increments: %d", c.Value())
	}
}
