package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"distda/internal/energy"
)

func TestMemoryAccessCounting(t *testing.T) {
	m := energy.NewMeter(energy.Default32nm())
	mem := NewMemory(DefaultConfig(), m)
	lat := mem.Access(false)
	if lat != DefaultConfig().LatencyCycles {
		t.Fatalf("latency = %d", lat)
	}
	mem.Access(true)
	if mem.Accesses != 2 || mem.Reads != 1 || mem.Writes != 1 {
		t.Fatalf("counts = %d/%d/%d", mem.Accesses, mem.Reads, mem.Writes)
	}
	if m.Get(energy.CatDRAM) != 2*m.Table.DRAMAccessPJ {
		t.Fatalf("energy = %g", m.Get(energy.CatDRAM))
	}
	if mem.LineBytes() != 64 {
		t.Fatalf("line = %d", mem.LineBytes())
	}
}

func TestSlabBasics(t *testing.T) {
	s, err := NewSlab(0x1000, 1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Alloc("A", 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base%4096 != 0 || a.Base < 0x1000 {
		t.Fatalf("A base = %#x", a.Base)
	}
	b, err := s.Alloc("B", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Base < a.End() {
		t.Fatalf("B overlaps A: %#x < %#x", b.Base, a.End())
	}
	if _, err := s.Alloc("A", 10); err == nil {
		t.Fatal("duplicate allocation accepted")
	}
	if _, err := s.Alloc("Z", 0); err == nil {
		t.Fatal("zero-byte allocation accepted")
	}
	if _, err := s.Alloc("huge", 2<<20); err == nil {
		t.Fatal("oversized allocation accepted")
	}
	r, ok := s.Lookup("B")
	if !ok || r != b {
		t.Fatal("Lookup B")
	}
	if owner, ok := s.OwnerOf(a.Base + 1); !ok || owner != "A" {
		t.Fatalf("OwnerOf = %q/%v", owner, ok)
	}
	if _, ok := s.OwnerOf(0); ok {
		t.Fatal("OwnerOf outside allocations")
	}
	objs := s.Objects()
	if len(objs) != 2 || objs[0] != "A" || objs[1] != "B" {
		t.Fatalf("Objects = %v", objs)
	}
	if err := s.Reset(0x1000, 1<<20, 4096); err != nil {
		t.Fatal(err)
	}
	if len(s.Objects()) != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, err := s.Alloc("A", 10); err != nil {
		t.Fatalf("realloc after reset: %v", err)
	}
}

func TestSlabRejectsBadConfig(t *testing.T) {
	if _, err := NewSlab(0, 0, 64); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewSlab(0, 100, 3); err == nil {
		t.Fatal("non-power-of-two align accepted")
	}
	if _, err := NewSlab(0, 100, 0); err == nil {
		t.Fatal("zero align accepted")
	}
}

// Property: allocations never overlap and are always aligned.
func TestSlabNonOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s, err := NewSlab(0, 1<<30, 64)
		if err != nil {
			return false
		}
		var regions []Region
		for i, raw := range sizes {
			if i > 50 {
				break
			}
			bytes := int64(raw%10000) + 1
			r, err := s.Alloc(name(i), bytes)
			if err != nil {
				return false
			}
			if r.Base%64 != 0 || r.Bytes != bytes {
				return false
			}
			for _, prev := range regions {
				if r.Base < prev.End() && prev.Base < r.End() {
					return false // overlap
				}
			}
			regions = append(regions, r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestRegionHelpers(t *testing.T) {
	r := Region{Base: 100, Bytes: 10}
	if r.End() != 110 {
		t.Fatal("End")
	}
	if !r.Contains(100) || !r.Contains(109) || r.Contains(110) || r.Contains(99) {
		t.Fatal("Contains")
	}
}

// driveMemory makes a seeded mix of reads and writes at random addresses
// and returns every latency in order.
func driveMemory(mem *Memory, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			out = append(out, mem.Access(rng.Intn(2) == 0))
		} else {
			out = append(out, mem.AccessAt(rng.Int63n(1<<24), rng.Intn(3) == 0))
		}
	}
	return out
}

// TestMemoryResetMatchesNew: a memory that served traffic with channel
// profiling on, Reset to another configuration and meter, equals
// NewMemory's memory for them — with channel profiling left off, and
// turned on again over another channel count — and then behaves like it
// access for access.
func TestMemoryResetMatchesNew(t *testing.T) {
	other := Config{LatencyCycles: 90, LineBytes: 32}
	for _, channels := range []int{0, 2, 8} {
		t.Run(fmt.Sprintf("channels%d", channels), func(t *testing.T) {
			mem := NewMemory(DefaultConfig(), energy.NewMeter(energy.Default32nm()))
			mem.EnableChannelProfile(4)
			driveMemory(mem, 1, 500)
			mem.Reset(other, energy.NewMeter(energy.Default32nm()))
			fresh := NewMemory(other, energy.NewMeter(energy.Default32nm()))
			mem.EnableChannelProfile(channels)
			fresh.EnableChannelProfile(channels)
			state := func(m *Memory) Memory {
				s := *m
				if !s.chanProf {
					s.chanAcc = nil // storage kept for the next EnableChannelProfile, unread
				}
				return s
			}
			if !reflect.DeepEqual(state(mem), state(fresh)) {
				t.Fatalf("reset memory differs from a new one:\nreset %+v\nnew   %+v", state(mem), state(fresh))
			}
			if got, want := driveMemory(mem, 2, 500), driveMemory(fresh, 2, 500); !reflect.DeepEqual(got, want) {
				t.Fatal("reset memory's latencies diverge from a new memory's")
			}
			if !reflect.DeepEqual(state(mem), state(fresh)) || !reflect.DeepEqual(mem.ChannelAccesses(), fresh.ChannelAccesses()) {
				t.Fatal("reset memory's counters diverge from a new memory's after the same accesses")
			}
			if (channels > 0) != (mem.ChannelAccesses() != nil) {
				t.Fatalf("%d channels profiled but ChannelAccesses = %v", channels, mem.ChannelAccesses())
			}
		})
	}
}

// driveSlab allocates a seeded sequence of objects (some too large, some
// repeated names) and probes every allocation, returning the outcomes.
func driveSlab(s *Slab, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("o%d", rng.Intn(30))
		r, err := s.Alloc(name, 1+rng.Int63n(1<<16))
		out = append(out, fmt.Sprint(r, err))
		got, ok := s.Lookup(name)
		owner, owned := s.OwnerOf(r.Base)
		out = append(out, fmt.Sprint(got, ok, owner, owned))
	}
	return append(out, fmt.Sprint(s.Objects()))
}

// TestSlabResetMatchesNew: a slab holding allocations, Reset to another
// arena and alignment, equals NewSlab's slab for them allocation for
// allocation; a Reset NewSlab would refuse fails and leaves the slab as
// it was.
func TestSlabResetMatchesNew(t *testing.T) {
	s, err := NewSlab(0, 1<<31, 4096)
	if err != nil {
		t.Fatal(err)
	}
	driveSlab(s, 1)
	if err := s.Reset(0x10000, 1<<20, 256); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSlab(0x10000, 1<<20, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s.arena != fresh.arena || s.next != fresh.next || s.align != fresh.align || len(s.allocs) != 0 {
		t.Fatalf("reset slab differs from a new one:\nreset %+v\nnew   %+v", s, fresh)
	}
	if got, want := driveSlab(s, 2), driveSlab(fresh, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset slab's allocations diverge from a new slab's:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("reset slab's state diverges from a new slab's after the same allocations")
	}
	before := *s
	for _, bad := range [][3]int64{{0, 0, 64}, {0, 1 << 20, 3}} {
		if err := s.Reset(bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("Reset%v accepted", bad)
		}
	}
	if !reflect.DeepEqual(*s, before) {
		t.Fatal("a failed Reset changed the slab")
	}
}
