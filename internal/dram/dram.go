// Package dram models the off-chip LPDDR memory (latency and energy per
// line access) and the slab allocator the runtime uses for
// accelerator-visible data structures (§IV-D): one large contiguous region
// per memory object so translation is a base+offset lookup.
package dram

import (
	"fmt"
	"sort"

	"distda/internal/energy"
)

// Config holds LPDDR timing parameters.
type Config struct {
	LatencyCycles int   // host-clock cycles per line access (row-buffer mixed)
	LineBytes     int64 // transfer granularity
}

// DefaultConfig matches Table III's LPDDR 2 GB part at a 2 GHz host clock.
func DefaultConfig() Config {
	return Config{LatencyCycles: 160, LineBytes: 64}
}

// Memory is the DRAM device model.
type Memory struct {
	cfg   Config
	meter *energy.Meter

	Accesses int64
	Reads    int64
	Writes   int64

	// chanAcc holds per-channel access counts for the profiling layer
	// while chanProf is set (EnableChannelProfile). Accounting is purely
	// observational: channel selection never changes the returned latency.
	chanAcc  []int64
	chanProf bool
}

// NewMemory returns a memory with the given config, metering into m.
func NewMemory(cfg Config, m *energy.Meter) *Memory {
	return &Memory{cfg: cfg, meter: m}
}

// Reset returns mem to the state NewMemory(cfg, m) would build: every
// counter at zero and channel profiling off. The channel counters' storage
// is kept for the next EnableChannelProfile, so a simulator can reuse one
// machine's memory from run to run.
func (mem *Memory) Reset(cfg Config, m *energy.Meter) {
	*mem = Memory{cfg: cfg, meter: m, chanAcc: mem.chanAcc}
}

// EnableChannelProfile turns on per-channel access attribution across n
// channels (no-op for n <= 0). Off by default: the counters cost one slice
// index per access only when enabled.
func (mem *Memory) EnableChannelProfile(n int) {
	if n <= 0 {
		return
	}
	if cap(mem.chanAcc) < n {
		mem.chanAcc = make([]int64, n)
	} else {
		mem.chanAcc = mem.chanAcc[:n]
		clear(mem.chanAcc)
	}
	mem.chanProf = true
}

// ChannelAccesses returns the per-channel access counts (nil when channel
// profiling is disabled). The slice is the memory's own storage: a Reset
// or EnableChannelProfile rewrites it.
func (mem *Memory) ChannelAccesses() []int64 {
	if !mem.chanProf {
		return nil
	}
	return mem.chanAcc
}

// channelOf maps a line address to a channel: channels interleave at 4 KiB
// granularity, matching the slab's page alignment so one object's pages
// stripe across channels.
func (mem *Memory) channelOf(addr int64) int {
	if addr < 0 {
		addr = -addr
	}
	return int((addr >> 12) % int64(len(mem.chanAcc)))
}

// Access models one line access and returns its latency in host cycles.
func (mem *Memory) Access(write bool) int {
	mem.Accesses++
	if write {
		mem.Writes++
	} else {
		mem.Reads++
	}
	if mem.meter != nil {
		mem.meter.Add(energy.CatDRAM, mem.meter.Table.DRAMAccessPJ)
	}
	return mem.cfg.LatencyCycles
}

// AccessAt models one line access carrying its address, so the profiling
// layer can attribute it to a channel. Timing and energy are identical to
// Access — the address feeds observation only.
func (mem *Memory) AccessAt(addr int64, write bool) int {
	if mem.chanProf {
		mem.chanAcc[mem.channelOf(addr)]++
	}
	return mem.Access(write)
}

// LatencyCycles returns the configured per-access latency in host cycles.
func (mem *Memory) LatencyCycles() int { return mem.cfg.LatencyCycles }

// LineBytes returns the transfer granularity.
func (mem *Memory) LineBytes() int64 { return mem.cfg.LineBytes }

// Region is an allocated address range.
type Region struct {
	Base  int64
	Bytes int64
}

// End returns one past the last byte.
func (r Region) End() int64 { return r.Base + r.Bytes }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr int64) bool { return addr >= r.Base && addr < r.End() }

// Slab is a bump allocator over a large contiguous accelerator-visible
// arena. Objects are page-aligned so the per-object translation block in
// each accelerator is a single base register (§IV-D).
//
// Allocations are held in a slice in allocation order: a kernel owns at
// most a handful of objects, and Lookup sits on the simulator's per-access
// translation path where a linear scan over short names beats the string
// hash a map lookup pays (it was a visible slice of the whole-repro
// profile).
type Slab struct {
	arena  Region
	next   int64
	align  int64
	allocs []alloc
}

type alloc struct {
	name string
	r    Region
}

// NewSlab creates a slab allocator over [base, base+size) with the given
// alignment (must be a power of two).
func NewSlab(base, size, align int64) (*Slab, error) {
	s := &Slab{}
	if err := s.Reset(base, size, align); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns s to the state NewSlab(base, size, align) would build —
// nothing allocated — keeping the allocation table's storage, so a
// simulator can reuse one machine's slab from run to run. It fails exactly
// when NewSlab would, and leaves s unchanged then.
func (s *Slab) Reset(base, size, align int64) error {
	if size <= 0 {
		return fmt.Errorf("dram: slab size must be positive, got %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return fmt.Errorf("dram: slab alignment must be a positive power of two, got %d", align)
	}
	clear(s.allocs)
	*s = Slab{
		arena:  Region{Base: base, Bytes: size},
		next:   base,
		align:  align,
		allocs: s.allocs[:0],
	}
	return nil
}

// Alloc reserves bytes for the named object and returns its region.
func (s *Slab) Alloc(name string, bytes int64) (Region, error) {
	if _, ok := s.Lookup(name); ok {
		return Region{}, fmt.Errorf("dram: object %q already allocated", name)
	}
	if bytes <= 0 {
		return Region{}, fmt.Errorf("dram: allocation of %d bytes for %q", bytes, name)
	}
	base := (s.next + s.align - 1) &^ (s.align - 1)
	if base+bytes > s.arena.End() {
		return Region{}, fmt.Errorf("dram: slab exhausted allocating %d bytes for %q (free %d)",
			bytes, name, s.arena.End()-base)
	}
	r := Region{Base: base, Bytes: bytes}
	s.allocs = append(s.allocs, alloc{name: name, r: r})
	s.next = base + bytes
	return r, nil
}

// Lookup returns the region of a named object.
func (s *Slab) Lookup(name string) (Region, bool) {
	for i := range s.allocs {
		if s.allocs[i].name == name {
			return s.allocs[i].r, true
		}
	}
	return Region{}, false
}

// Objects returns allocated object names, sorted.
func (s *Slab) Objects() []string {
	out := make([]string, 0, len(s.allocs))
	for _, a := range s.allocs {
		out = append(out, a.name)
	}
	sort.Strings(out)
	return out
}

// OwnerOf returns the name of the object containing addr, if any.
func (s *Slab) OwnerOf(addr int64) (string, bool) {
	for _, a := range s.allocs {
		if a.r.Contains(addr) {
			return a.name, true
		}
	}
	return "", false
}
