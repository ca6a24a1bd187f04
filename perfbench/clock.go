package main

import (
	"fmt"
	"os"
	"sync/atomic" //lint:allow nogoroutine the hard-stop timer reads the running cell ID from its own goroutine
	"time"
)

// now reads the host wall clock. Host time is what the benchmark
// measures; simulated time never flows through it.
func now() time.Time {
	return time.Now() //lint:allow detrand host wall time is the benchmark's measurement, never simulated time
}

// running holds the ID of the cell being executed, for the hard-stop
// report.
var running atomic.Pointer[string]

// armHardStop ends the process, without a result, if the run outlasts
// limit. A cell that never finishes cannot be stopped from outside the
// simulator, and abandoning it would leave it burning a CPU under every
// later measurement, so a hang fails the run instead of being counted.
func armHardStop(limit time.Duration) {
	time.AfterFunc(limit, func() { //lint:allow detrand the hard stop is a host-time limit on the whole run
		id := "(none)"
		if p := running.Load(); p != nil {
			id = *p
		}
		fmt.Fprintf(os.Stderr, "perfbench: cell %s still running after %v; stopping without a result\n", id, limit)
		os.Exit(1)
	})
}
