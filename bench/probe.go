package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refNominal is one probe sample's duration on a quiet host of the kind the
// benchmark was calibrated on (see README.md). Timings are reported in
// seconds of that nominal host.
const refNominal = 60 * time.Millisecond

// probe tracks the host's speed during a run. On a shared VM the memory
// system's speed drifts by ±30% over minutes, and the simulator's speed
// drifts with it; a fixed, memory-bound reference loop that uses no
// repository code drifts the same way. The benchmark samples it between
// timed units (outside their timing) and scales each unit's times by
// refNominal / the median nearby sample, which cuts the run-to-run spread
// of the timings by a factor of two to four on such a host.
type probe struct {
	tab     []uint64 // outside the Go heap, so it does not move GC pacing
	samples []time.Duration
}

// probeTable is mapped and filled once per process and shared by every
// probe (the unit tests start several runs in one process).
var probeTable = sync.OnceValues(func() ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe table: %w", err)
	}
	tab := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	x := uint64(88172645463325252)
	for i := range tab { // xorshift fill: a fixed pseudo-random table
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[i] = x
	}
	return tab, nil
})

func newProbe() (*probe, error) {
	tab, err := probeTable()
	if err != nil {
		return nil, err
	}
	return &probe{tab: tab}, nil
}

var probeSink uint64

// sample times one run of the reference loop: dependent random loads and
// read-modify-writes over a 16 MiB table. A nil probe does nothing.
func (p *probe) sample() {
	if p == nil {
		return
	}
	t0 := time.Now()
	n := uint64(len(p.tab))
	i, acc := uint64(1), uint64(0)
	for k := uint64(0); k < 600000; k++ {
		v := p.tab[i]
		acc += v
		p.tab[(i*2654435761)%n] ^= acc
		i = (v ^ k) % n
	}
	probeSink += acc
	p.samples = append(p.samples, time.Since(t0))
}

// samplesN takes n samples.
func (p *probe) samplesN(n int) {
	for i := 0; i < n; i++ {
		p.sample()
	}
}

// mark returns a position in the sample list for scale.
func (p *probe) mark() int {
	if p == nil {
		return 0
	}
	return len(p.samples)
}

// scale returns the factor that converts durations measured around the
// samples taken since mark into durations on the nominal host: refNominal
// over the samples' median (1 for a nil probe).
func (p *probe) scale(from int) float64 {
	if p == nil || from < 0 || from >= len(p.samples) {
		return 1
	}
	s := append([]time.Duration(nil), p.samples[from:]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := float64(s[len(s)/2]+s[(len(s)-1)/2]) / 2
	return float64(refNominal) / mid
}
