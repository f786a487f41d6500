// Package prof wires the standard runtime/pprof file profiles into the
// CLIs: -cpuprofile and -memprofile flags for sgtail (a query over a
// real stream) and sgbench (the paper's experiments), so the hot-path
// work (SJ-Tree inserts, candidate search, eviction) can be profiled
// without a test harness.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered profile destinations.
type Flags struct {
	cpu *string
	mem *string
}

// RegisterFlags adds -cpuprofile / -memprofile to the default flag set.
// Call before flag.Parse.
func RegisterFlags() *Flags {
	return &Flags{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write an allocation profile to this file on exit"),
	}
}

// Start begins CPU profiling when requested and returns a stop function
// to defer: it flushes the CPU profile and, when requested, writes the
// heap profile. Call after flag.Parse.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *f.mem != "" {
			mf, err := os.Create(*f.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer mf.Close()
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}
