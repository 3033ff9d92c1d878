// Package cache models the on-chip cache hierarchy of Table III: private
// L1/L2 for the host (with an L2 stride prefetcher) and a 2 MB static-NUCA
// L3 of 8 clusters on the mesh NoC. Levels are real set-associative LRU
// arrays so access counts, hit rates, evictions and writebacks — the
// quantities behind Figs. 7, 8 and 11 — emerge from the address streams
// rather than being assumed.
package cache

import (
	"fmt"
	"math/bits"

	"distda/internal/energy"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	Latency   int // cycles per access
	EnergyPJ  float64
	EnergyCat energy.Cat
}

// line is one cache line's metadata.
type line struct {
	tag   int64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Level is a set-associative write-back, write-allocate cache array. The
// lines of all sets live in one contiguous slice, set s occupying
// data[s*ways : (s+1)*ways].
type Level struct {
	cfg  LevelConfig
	sets int
	ways int
	data []line
	// touched has bit s set once Insert has filled a line of set s: only
	// those sets hold non-zero lines, so Reset clears just them.
	touched []uint64
	clock   uint64
	meter   *energy.Meter

	Accesses int64
	Hits     int64
	Misses   int64
	Evicts   int64
	Wbacks   int64
}

// NewLevel builds a level. SizeBytes must be divisible by Ways*LineBytes
// into a power-of-two set count.
func NewLevel(cfg LevelConfig, m *energy.Meter) (*Level, error) {
	l := &Level{}
	if err := l.Reset(cfg, m); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset returns l to the state NewLevel(cfg, m) would build — every line
// invalid, LRU clock and counters at zero — keeping the line array when it
// is large enough, so a simulator can reuse one machine's caches from run
// to run. Under the same geometry it clears only the sets filled since
// the last reset, so a short run's reset costs what the run touched. It
// fails exactly when NewLevel would, and leaves l unchanged then.
func (l *Level) Reset(cfg LevelConfig, m *energy.Meter) error {
	if cfg.Ways <= 0 || cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 {
		return fmt.Errorf("cache: level %q has non-positive geometry", cfg.Name)
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: level %q: set count %d is not a positive power of two", cfg.Name, sets)
	}
	data, touched := l.data, l.touched
	if sets == l.sets && cfg.Ways == l.ways {
		// Lines outside the touched sets are still zero.
		for i, word := range touched {
			for ; word != 0; word &= word - 1 {
				clear(l.set(i<<6 | bits.TrailingZeros64(word)))
			}
		}
		clear(touched)
	} else {
		// A new geometry views the array differently: clear all of it.
		if n := sets * cfg.Ways; cap(data) < n {
			data = make([]line, n)
		} else {
			data = data[:n]
			clear(data)
		}
		if n := (sets + 63) / 64; cap(touched) < n {
			touched = make([]uint64, n)
		} else {
			touched = touched[:n]
			clear(touched)
		}
	}
	*l = Level{cfg: cfg, sets: sets, ways: cfg.Ways, data: data, touched: touched, meter: m}
	return nil
}

// set returns the ways of set s.
func (l *Level) set(s int) []line { return l.data[s*l.ways : (s+1)*l.ways] }

func (l *Level) index(addr int64) (set int, tag int64) {
	lineAddr := addr / int64(l.cfg.LineBytes)
	return int(lineAddr & int64(l.sets-1)), lineAddr
}

func (l *Level) energy() {
	if l.meter != nil {
		l.meter.Add(l.cfg.EnergyCat, l.cfg.EnergyPJ)
	}
}

// Lookup probes the level without counting an access (used by prefetch
// filtering). It does not update LRU state.
func (l *Level) Lookup(addr int64) bool {
	set, tag := l.index(addr)
	ways := l.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return true
		}
	}
	return false
}

// Access probes the level for addr, updating LRU and dirty state on hit.
// It counts one access and its energy.
func (l *Level) Access(addr int64, write bool) (hit bool) {
	l.Accesses++
	l.energy()
	l.clock++
	set, tag := l.index(addr)
	ways := l.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.used = l.clock
			if write {
				ln.dirty = true
			}
			l.Hits++
			return true
		}
	}
	l.Misses++
	return false
}

// Insert fills addr's line, evicting LRU if needed. It returns the evicted
// line's address and dirtiness when an eviction of a valid line occurred.
func (l *Level) Insert(addr int64, dirty bool) (evicted int64, evictedDirty, didEvict bool) {
	l.clock++
	set, tag := l.index(addr)
	l.touched[set>>6] |= 1 << (set & 63)
	ways := l.set(set)
	victim := 0
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag { // already present (race with prefetch)
			ln.used = l.clock
			ln.dirty = ln.dirty || dirty
			return 0, false, false
		}
		if !ln.valid {
			victim = i
		} else if ways[victim].valid && ln.used < ways[victim].used {
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid {
		evicted = v.tag * int64(l.cfg.LineBytes)
		evictedDirty = v.dirty
		didEvict = true
		l.Evicts++
		if evictedDirty {
			l.Wbacks++
		}
	}
	*v = line{tag: tag, valid: true, dirty: dirty, used: l.clock}
	return evicted, evictedDirty, didEvict
}

// InvalidateRange drops every line overlapping [base, base+bytes), counting
// dirty ones, and returns (linesDropped, dirtyLines). Used for the
// software-managed coherence flush before offload (§IV-D).
func (l *Level) InvalidateRange(base, bytes int64) (dropped, dirty int) {
	end := base + bytes
	for i := range l.data {
		ln := &l.data[i]
		if !ln.valid {
			continue
		}
		addr := ln.tag * int64(l.cfg.LineBytes)
		if addr+int64(l.cfg.LineBytes) > base && addr < end {
			dropped++
			if ln.dirty {
				dirty++
			}
			ln.valid = false
		}
	}
	return dropped, dirty
}

// Latency returns the level's access latency in cycles.
func (l *Level) Latency() int { return l.cfg.Latency }

// LineBytes returns the level's line size.
func (l *Level) LineBytes() int { return l.cfg.LineBytes }
