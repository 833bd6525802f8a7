package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiling wires the standard Go profile files behind CLI flags:
//
//   - cpuProfile != "": write a CPU profile there until stop is called;
//   - memProfile != "": write a heap profile there when stop is called.
//
// It returns a stop function that must be called on every exit path,
// including before os.Exit on a fatal error (a no-op when no profiling was
// requested), and an error if a profile could not be set up — callers treat
// that as fatal, since the user explicitly asked to profile.
func StartProfiling(cpuProfile, memProfile string) (func(), error) {
	var cleanups []func()
	stop := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cleanups = append(cleanups, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		})
	}

	if memProfile != "" {
		cleanups = append(cleanups, func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize up-to-date heap statistics
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		})
	}

	return stop, nil
}
