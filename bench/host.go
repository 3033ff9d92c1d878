package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns this process's peak resident set size (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is the Go runtime's allocation and GC account, as a difference
// between two snapshots.
type goStats struct {
	gcCycles uint32
	gcPause  time.Duration
	allocMB  float64
	mallocs  uint64
}

func readGoStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func goStatsDelta(before, after runtime.MemStats) goStats {
	return goStats{
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:  after.Mallocs - before.Mallocs,
	}
}

func (g goStats) record(r *report) {
	r.set("go.gc_cycles", float64(g.gcCycles))
	r.set("go.gc_pause_ms", ms(g.gcPause))
	r.set("go.alloc_mb", g.allocMB)
}
