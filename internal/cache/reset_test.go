package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"distda/internal/dram"
	"distda/internal/energy"
	"distda/internal/noc"
)

// driveLevel runs a seeded mix of accesses, fills and range
// invalidations over an address range a few times the level's size, so
// sets fill, LRU victims are chosen and dirty lines are evicted. It
// returns every outcome in order.
func driveLevel(l *Level, seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	span := int64(4 * l.cfg.SizeBytes)
	var out []int64
	for i := 0; i < n; i++ {
		addr := rng.Int63n(span)
		write := rng.Intn(3) == 0
		switch rng.Intn(10) {
		case 0:
			d, dirty := l.InvalidateRange(addr, 512)
			out = append(out, int64(d), int64(dirty))
		case 1, 2, 3:
			ev, dirty, ok := l.Insert(addr, write)
			out = append(out, ev, b2i(dirty), b2i(ok))
		default:
			out = append(out, b2i(l.Access(addr, write)), b2i(l.Lookup(addr)))
		}
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestLevelResetMatchesNew: a level that served traffic, Reset to another
// geometry (smaller, equal and larger than its own), equals NewLevel's
// level for that geometry, then behaves like it access for access.
func TestLevelResetMatchesNew(t *testing.T) {
	orig := LevelConfig{Name: "a", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, Latency: 2, EnergyPJ: 10, EnergyCat: energy.CatL1}
	for _, cfg := range []LevelConfig{
		{Name: "small", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64, Latency: 3, EnergyPJ: 7, EnergyCat: energy.CatL2},
		orig,
		{Name: "large", SizeBytes: 32 << 10, Ways: 8, LineBytes: 32, Latency: 9, EnergyPJ: 30, EnergyCat: energy.CatL3},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			l, err := NewLevel(orig, energy.NewMeter(energy.Default32nm()))
			if err != nil {
				t.Fatal(err)
			}
			driveLevel(l, 1, 5000)
			resetMeter, freshMeter := energy.NewMeter(energy.Default32nm()), energy.NewMeter(energy.Default32nm())
			if err := l.Reset(cfg, resetMeter); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewLevel(cfg, freshMeter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(l, fresh) {
				t.Fatalf("reset level differs from a new one:\nreset %+v\nnew   %+v", l, fresh)
			}
			if got, want := driveLevel(l, 2, 5000), driveLevel(fresh, 2, 5000); !reflect.DeepEqual(got, want) {
				t.Fatal("reset level's accesses diverge from a new level's")
			}
			if !reflect.DeepEqual(l, fresh) {
				t.Fatal("reset level's state diverges from a new level's after the same accesses")
			}
		})
	}
	t.Run("invalid", func(t *testing.T) {
		l, _ := NewLevel(orig, nil)
		driveLevel(l, 1, 100)
		before := *l
		if err := l.Reset(LevelConfig{Name: "bad", SizeBytes: 3 * 2 * 64, Ways: 2, LineBytes: 64}, nil); err == nil {
			t.Fatal("non-power-of-two sets accepted")
		}
		if !reflect.DeepEqual(*l, before) {
			t.Fatal("a failed Reset changed the level")
		}
	})
}

// fillLevel inserts a dirty line into every way of every set of l.
func fillLevel(l *Level) {
	for i := 0; i < l.sets*l.ways; i++ {
		l.Insert(int64(i*l.cfg.LineBytes), true)
	}
}

// TestLevelResetAcrossGeometry: Reset clears only the sets Insert touched
// while the geometry stays; across a change of set count or ways it must
// still leave no line of the old view behind. A level filled in every set
// (so sets outside the new geometry are touched), Reset to fewer sets, to
// more ways over the same sets, and to more sets, equals NewLevel's level;
// filled again and Reset back to its first geometry, it equals that level
// too and behaves like it access for access.
func TestLevelResetAcrossGeometry(t *testing.T) {
	orig := LevelConfig{Name: "orig", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64} // 64 sets
	for _, cfg := range []LevelConfig{
		{Name: "fewer-sets", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},   // 16 sets
		{Name: "more-ways", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},   // 64 sets
		{Name: "fewer-ways", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64},   // 32 sets
		{Name: "more-sets", SizeBytes: 64 << 10, Ways: 2, LineBytes: 64},   // 512 sets
		{Name: "wider-lines", SizeBytes: 16 << 10, Ways: 4, LineBytes: 32}, // 128 sets
		{Name: "same-shape", SizeBytes: 32 << 10, Ways: 4, LineBytes: 128}, // 64 sets
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			l, err := NewLevel(orig, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, next := range []LevelConfig{cfg, orig} {
				fillLevel(l)
				if err := l.Reset(next, nil); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewLevel(next, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(l, fresh) {
					t.Fatalf("%s reset to %s differs from a new level", l.cfg.Name, next.Name)
				}
				if got, want := driveLevel(l, 3, 3000), driveLevel(fresh, 3, 3000); !reflect.DeepEqual(got, want) {
					t.Fatalf("level reset to %s diverges from a new one", next.Name)
				}
			}
		})
	}
}

// hierParts builds a fresh memory, mesh and meter for a hierarchy.
func hierParts() (*dram.Memory, *noc.Mesh, *energy.Meter) {
	meter := energy.NewMeter(energy.Default32nm())
	return dram.NewMemory(dram.DefaultConfig(), meter), noc.New(noc.DefaultConfig(), meter), meter
}

// driveHier runs a seeded mix of host accesses (strided runs that train
// the prefetcher, and random ones), accelerator cluster accesses and
// coherence flushes, returning every latency in order.
func driveHier(h *Hierarchy, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	addr := int64(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			lat, hit := h.ClusterAccess(rng.Intn(h.Clusters()), rng.Int63n(4<<20), rng.Intn(2) == 0, 64)
			out = append(out, lat, int(b2i(hit)))
		case 1:
			out = append(out, h.FlushRange(rng.Int63n(4<<20), 4096))
		case 2:
			addr = rng.Int63n(4 << 20)
		default:
			addr += 64 * int64(1+rng.Intn(2))
			out = append(out, h.HostAccess(addr, rng.Intn(4) == 0))
		}
	}
	return out
}

// TestHierarchyResetMatchesNew: a hierarchy that served traffic (stride
// prefetcher trained), Reset with another configuration and other
// memory, mesh and meter, equals New's hierarchy for them, then behaves
// like it access for access.
func TestHierarchyResetMatchesNew(t *testing.T) {
	orig := DefaultConfig(energy.Default32nm())
	fewer := orig
	fewer.Clusters, fewer.L2Prefetch = 4, false
	smaller := orig
	smaller.L3Cluster.SizeBytes, smaller.PrefetchDegree = 64<<10, 3
	for _, cfg := range []Config{orig, fewer, smaller} {
		t.Run(fmt.Sprintf("clusters%d/prefetch=%v/l3=%d", cfg.Clusters, cfg.L2Prefetch, cfg.L3Cluster.SizeBytes), func(t *testing.T) {
			mem, mesh, meter := hierParts()
			h, err := New(orig, mem, mesh, meter)
			if err != nil {
				t.Fatal(err)
			}
			driveHier(h, 1, 20000)
			if h.PrefetchIssued == 0 {
				t.Fatal("the prefetcher never fired: the stride table is not exercised")
			}
			mem, mesh, meter = hierParts()
			if err := h.Reset(cfg, mem, mesh, meter); err != nil {
				t.Fatal(err)
			}
			fmem, fmesh, fmeter := hierParts()
			fresh, err := New(cfg, fmem, fmesh, fmeter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h, fresh) {
				t.Fatal("reset hierarchy differs from a new one")
			}
			if got, want := driveHier(h, 2, 20000), driveHier(fresh, 2, 20000); !reflect.DeepEqual(got, want) {
				t.Fatal("reset hierarchy's accesses diverge from a new hierarchy's")
			}
			if !reflect.DeepEqual(h, fresh) {
				t.Fatal("reset hierarchy's state (levels, memory, mesh, meter) diverges from a new one's after the same accesses")
			}
		})
	}
	// Reset keeps the line arrays: resetting to the same configuration
	// allocates nothing.
	mem, mesh, meter := hierParts()
	h, err := New(orig, mem, mesh, meter)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := h.Reset(orig, mem, mesh, meter); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reset to the same configuration made %v allocations, want 0", n)
	}
}
