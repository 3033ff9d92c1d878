package cache

import (
	"fmt"

	"distda/internal/dram"
	"distda/internal/energy"
	"distda/internal/noc"
)

// Config assembles the Table III hierarchy.
type Config struct {
	L1, L2, L3Cluster LevelConfig
	Clusters          int
	BanksPerCluster   int
	ClusterSpanBytes  int64 // address-range chunk anchoring data to clusters
	HostNode          int   // mesh node of the host tile
	MemNode           int   // mesh node of the memory controller
	L2Prefetch        bool  // stride prefetcher at L2 (Table III)
	PrefetchDegree    int
}

// DefaultConfig returns Table III's parameters with 32 nm energy.
func DefaultConfig(t energy.Table) Config {
	return Config{
		L1: LevelConfig{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64,
			Latency: 2, EnergyPJ: t.L1AccessPJ, EnergyCat: energy.CatL1},
		L2: LevelConfig{Name: "L2", SizeBytes: 128 << 10, Ways: 16, LineBytes: 64,
			Latency: 4, EnergyPJ: t.L2AccessPJ, EnergyCat: energy.CatL2},
		L3Cluster: LevelConfig{Name: "L3", SizeBytes: 256 << 10, Ways: 16, LineBytes: 64,
			Latency: 10, EnergyPJ: t.L3AccessPJ, EnergyCat: energy.CatL3},
		Clusters:         8,
		BanksPerCluster:  4,
		ClusterSpanBytes: 64 << 10,
		HostNode:         0,
		MemNode:          7,
		L2Prefetch:       true,
		PrefetchDegree:   2,
	}
}

// Hierarchy is the full host-visible cache system plus the distributed L3
// the accelerators attach to.
type Hierarchy struct {
	cfg   Config
	l1    *Level
	l2    *Level
	l3    []*Level // one per cluster
	mem   *dram.Memory
	mesh  *noc.Mesh
	meter *energy.Meter
	pf    *stridePrefetcher

	PrefetchIssued int64
	PrefetchUseful int64
}

// New assembles the hierarchy.
func New(cfg Config, mem *dram.Memory, mesh *noc.Mesh, meter *energy.Meter) (*Hierarchy, error) {
	if cfg.Clusters <= 0 {
		return nil, fmt.Errorf("cache: cluster count %d", cfg.Clusters)
	}
	if mesh != nil && cfg.Clusters > mesh.Nodes() {
		return nil, fmt.Errorf("cache: %d clusters but mesh has %d nodes", cfg.Clusters, mesh.Nodes())
	}
	h := &Hierarchy{cfg: cfg, mem: mem, mesh: mesh, meter: meter}
	var err error
	if h.l1, err = NewLevel(cfg.L1, meter); err != nil {
		return nil, err
	}
	if h.l2, err = NewLevel(cfg.L2, meter); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Clusters; i++ {
		lvl, err := NewLevel(cfg.L3Cluster, meter)
		if err != nil {
			return nil, err
		}
		h.l3 = append(h.l3, lvl)
	}
	if cfg.L2Prefetch {
		h.pf = newStridePrefetcher(8)
	}
	return h, nil
}

// HomeCluster returns the static-NUCA home cluster of an address: data is
// anchored to clusters in ClusterSpanBytes chunks so an object's consecutive
// region stays local to one cluster (§IV-D "home bank").
func (h *Hierarchy) HomeCluster(addr int64) int {
	if addr < 0 {
		addr = 0
	}
	return int((addr / h.cfg.ClusterSpanBytes) % int64(h.cfg.Clusters))
}

// Clusters returns the cluster count.
func (h *Hierarchy) Clusters() int { return h.cfg.Clusters }

// ClusterSpan returns the address-range chunk size anchoring data to
// clusters (HomeCluster changes every ClusterSpan bytes).
func (h *Hierarchy) ClusterSpan() int64 { return h.cfg.ClusterSpanBytes }

// HostNode returns the host's mesh node.
func (h *Hierarchy) HostNode() int { return h.cfg.HostNode }

// Counters for Fig. 8. Total cache accesses across L1+L2+L3.
func (h *Hierarchy) CacheAccesses() (l1, l2, l3 int64) {
	l1, l2 = h.l1.Accesses, h.l2.Accesses
	for _, c := range h.l3 {
		l3 += c.Accesses
	}
	return l1, l2, l3
}

// transfer moves bytes over the mesh if present, returning latency.
func (h *Hierarchy) transfer(a, b, bytes int, class noc.Class) int {
	if h.mesh == nil || a == b {
		return 0
	}
	return h.mesh.Transfer(a, b, bytes, class)
}

// dramFill fetches a line into cluster cl's L3 and returns its latency.
// Dirty L3 evictions write back to memory.
func (h *Hierarchy) dramFill(cl int, addr int64, write bool) int {
	lat := h.transfer(cl, h.cfg.MemNode, 8, noc.HostCtrl) // request
	lat += h.mem.AccessAt(addr, false)
	lat += h.transfer(h.cfg.MemNode, cl, h.l3[cl].LineBytes(), noc.HostData)
	if ev, dirty, ok := h.l3[cl].Insert(addr, write); ok && dirty {
		h.transfer(cl, h.cfg.MemNode, h.l3[cl].LineBytes(), noc.HostData)
		h.mem.AccessAt(ev, true)
	}
	return lat
}

// l3Access performs an L3 access at the home cluster of addr on behalf of a
// requester at mesh node reqNode, filling from DRAM on miss. It returns
// (latency, home cluster, hitInL3).
func (h *Hierarchy) l3Access(reqNode int, addr int64, write bool) (int, int, bool) {
	home := h.HomeCluster(addr)
	lat := h.transfer(reqNode, home, 8, noc.HostCtrl) // request control
	l3 := h.l3[home]
	lat += l3.Latency()
	hit := l3.Access(addr, write)
	if !hit {
		lat += h.dramFill(home, addr, write)
	}
	// Response data back to the requester.
	lat += h.transfer(home, reqNode, l3.LineBytes(), noc.HostData)
	return lat, home, hit
}

// HostAccess models a demand load/store from the host core through
// L1 → L2 → L3(home) → DRAM and returns the total latency in host cycles.
func (h *Hierarchy) HostAccess(addr int64, write bool) int {
	lat := h.l1.Latency()
	if h.l1.Access(addr, write) {
		return lat
	}
	lat += h.l2.Latency()
	l2hit := h.l2.Access(addr, write)
	if h.pf != nil {
		h.prefetch(addr)
	}
	if l2hit {
		h.fillL1(addr, write)
		return lat
	}
	l3lat, _, _ := h.l3Access(h.cfg.HostNode, addr, false)
	lat += l3lat
	h.fillL2(addr, false)
	h.fillL1(addr, write)
	return lat
}

func (h *Hierarchy) fillL1(addr int64, dirty bool) {
	if ev, evDirty, ok := h.l1.Insert(addr, dirty); ok && evDirty {
		// Writeback into L2 (local, no NoC).
		h.l2.Access(ev, true)
		h.fillL2(ev, true)
	}
}

func (h *Hierarchy) fillL2(addr int64, dirty bool) {
	if ev, evDirty, ok := h.l2.Insert(addr, dirty); ok && evDirty {
		// Writeback to home L3 over the NoC.
		home := h.HomeCluster(ev)
		h.transfer(h.cfg.HostNode, home, h.l2.LineBytes(), noc.HostData)
		if !h.l3[home].Access(ev, true) {
			h.dramFill(home, ev, true)
		}
	}
}

// prefetch runs the stride detector on the L2 access stream and issues
// next-line fills into L2.
func (h *Hierarchy) prefetch(addr int64) {
	lineBytes := int64(h.l2.LineBytes())
	strideLines, ok := h.pf.observe(addr / lineBytes)
	if !ok {
		return
	}
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		target := addr + int64(d)*strideLines*lineBytes
		if target < 0 {
			continue
		}
		if h.l2.Lookup(target) {
			continue
		}
		h.PrefetchIssued++
		if h.meter != nil {
			h.meter.Add(energy.CatL2, h.meter.Table.PrefetchPJ)
		}
		// Fetch from L3/DRAM into L2 (latency hidden; traffic real).
		if _, _, hit := h.l3Access(h.cfg.HostNode, target, false); hit {
			h.PrefetchUseful++
		}
		h.fillL2(target, false)
	}
}

// ClusterAccess models an access from an accelerator attached to cluster cl
// directly into the L3 layer (accelerators bypass host L1/L2; their local
// ACP keeps requests within the cluster when the data is home, §IV-D). It
// returns the latency in host cycles and whether the line was on-chip.
// bytes is the payload moved to the requester (a full line for stream fills,
// a word for cp_read/cp_write).
func (h *Hierarchy) ClusterAccess(cl int, addr int64, write bool, bytes int) (int, bool) {
	home := h.HomeCluster(addr)
	lat := 0
	if cl != home {
		lat += h.transfer(cl, home, 8, noc.HostCtrl)
	}
	l3 := h.l3[home]
	lat += l3.Latency()
	hit := l3.Access(addr, write)
	if !hit {
		lat += h.dramFill(home, addr, write)
	}
	if cl != home {
		lat += h.transfer(home, cl, bytes, noc.HostData)
	}
	return lat, hit
}

// FlushRange implements the software-managed coherence hand-off: every
// host-private (L1/L2) line of the range is invalidated, dirty lines are
// pushed to their home L3 bank. It returns the cycle cost charged to the
// host.
func (h *Hierarchy) FlushRange(base, bytes int64) int {
	d1, dirty1 := h.l1.InvalidateRange(base, bytes)
	d2, dirty2 := h.l2.InvalidateRange(base, bytes)
	cost := (d1 + d2) * 2 // tag sweep
	for i := 0; i < dirty1+dirty2; i++ {
		// Model the writeback of a dirty line to its home bank; the range
		// midpoint is representative enough for home selection since spans
		// are far larger than lines.
		addr := base + int64(i)*int64(h.l1.LineBytes())
		if addr >= base+bytes {
			addr = base
		}
		home := h.HomeCluster(addr)
		cost += h.transfer(h.cfg.HostNode, home, h.l1.LineBytes(), noc.HostData)
		if !h.l3[home].Access(addr, true) {
			h.dramFill(home, addr, true)
		}
	}
	return cost
}

// Levels exposes the raw levels for tests and reports.
func (h *Hierarchy) Levels() (l1, l2 *Level, l3 []*Level) { return h.l1, h.l2, h.l3 }

// stridePrefetcher is a small table of page-indexed stream entries.
type stridePrefetcher struct {
	entries []pfEntry
	clock   uint64
}

type pfEntry struct {
	page     int64
	lastLine int64
	stride   int64
	conf     int
	used     uint64
	valid    bool
}

func newStridePrefetcher(n int) *stridePrefetcher {
	return &stridePrefetcher{entries: make([]pfEntry, n)}
}

// observe feeds one L2 access (line address) to the detector. When a stream
// is confident it returns (strideInLines, true).
func (p *stridePrefetcher) observe(lineAddr int64) (int64, bool) {
	p.clock++
	page := lineAddr >> 6 // 4 KB pages of 64 B lines
	var victim, found = 0, -1
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.page == page {
			found = i
			break
		}
		if !e.valid || e.used < p.entries[victim].used || !p.entries[victim].valid {
			victim = i
		}
	}
	if found == -1 {
		p.entries[victim] = pfEntry{page: page, lastLine: lineAddr, valid: true, used: p.clock}
		return 0, false
	}
	e := &p.entries[found]
	e.used = p.clock
	stride := lineAddr - e.lastLine
	if stride == 0 {
		return 0, false
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 1
	}
	e.lastLine = lineAddr
	if e.conf >= 2 {
		return e.stride, true
	}
	return 0, false
}
