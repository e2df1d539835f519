package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile capture hooks for the benchmark binaries. Two environment
// variables toggle them, so CI's bench smoke job (and anyone reproducing a
// contention report locally) can capture profiles without rebuilding:
//
//	SPECMINE_CPUPROFILE=path    write a CPU profile of the whole run
//	SPECMINE_MUTEXPROFILE=path  write a mutex-contention profile
//
// StartProfiles is wired into the bench package's TestMain, so `go test
// -bench` invocations and TestPerfGates produce artifacts from the same
// switches.

// mutexProfileFraction is the sampling rate handed to
// runtime.SetMutexProfileFraction while a mutex profile is requested: one in
// five contention events is sampled, low enough not to distort the measured
// hot paths.
const mutexProfileFraction = 5

// StartProfiles starts the captures requested via the environment and
// returns a stop function that flushes them; the caller must invoke it
// before exiting. With neither variable set it is a no-op.
func StartProfiles() (stop func() error, err error) {
	var stops []func() error

	if path := os.Getenv("SPECMINE_CPUPROFILE"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("bench: creating cpu profile %s: %w", path, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: starting cpu profile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}

	if path := os.Getenv("SPECMINE_MUTEXPROFILE"); path != "" {
		prev := runtime.SetMutexProfileFraction(mutexProfileFraction)
		stops = append(stops, func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("bench: creating mutex profile %s: %w", path, err)
			}
			defer f.Close()
			defer runtime.SetMutexProfileFraction(prev)
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				return fmt.Errorf("bench: writing mutex profile: %w", err)
			}
			return nil
		})
	}

	return func() error {
		var first error
		for _, s := range stops {
			if err := s(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
