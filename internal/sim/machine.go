package sim

import (
	"fmt"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/cache"
	"distda/internal/core"
	"distda/internal/dram"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/noc"
	"distda/internal/profile"
	"distda/internal/trace"
)

// hostDiv converts 2 GHz host cycles to base cycles.
var hostDiv = int64(engine.Div(2))

// machine is the simulated Table III system. A Runner keeps one machine
// from run to run: the caches, mesh, DRAM, meter, slab, scheduler and
// launch pools are storage that outlives a run, while everything the run
// brings — kernel, params, data, compiled definitions, tracer, profiler
// and histogram handles — is attached by reset and dropped by release.
// After reset the machine is indistinguishable from a freshly built one.
type machine struct {
	cfg    Config
	kernel *ir.Kernel
	params map[string]float64

	meter *energy.Meter
	mesh  *noc.Mesh
	dmem  *dram.Memory
	hier  *cache.Hierarchy
	slab  *dram.Slab
	data  map[string][]float64

	austats *accessunit.Stats
	priv    *privFetcher
	mmio    core.IntrinsicStats
	alloc   core.AllocationTable

	// Launch assembly state, reused from one launch to the next and, as
	// storage, from one run to the next. No definition pointer outlives
	// its run: release drops every reference the pools hold, and the
	// pointer-keyed defs map and backend memo start empty at every reset
	// (a recycled address must never find the wrong entry).
	//
	// eng is Reset at the start of every launch. rts are the per-launch
	// tables, plan the buffer plan, memo the backends' per-definition
	// derivations (the CGRA mapping, the validated programs), defs the
	// launch path's own (see defInfo), and clusterFetch the cache-path
	// fetcher, built on first use in a run (see fetcherFor).
	eng          *engine.Engine
	rts          []*accelRT
	plan         core.BufferPlan
	memo         backend.Memo
	defs         map[*core.AccelDef]*defInfo
	clusterFetch accessunit.Fetcher
	// The launch's components: decoupling buffers, local links, fill and
	// drain FSMs and random ports, the last three each with its own memory
	// adapter, and the backend engines, one pool per backend. Every pool
	// is rewound when the next launch is assembled (rewindPools), once
	// eng.Reset has dropped the components of the previous one, and hands
	// its items out again through their Reset.
	bufs    pool[accessunit.Buffer]
	links   pool[accessunit.LocalLink]
	fills   pool[fillUnit]
	drains  pool[drainUnit]
	ports   pool[portUnit]
	engines []*enginePool
	// bufAccesses folds in each launch's buffer push+pop count once its
	// engines have run (Fig. 9 "intra", data movement and the au/buffers
	// profile component). bufSeq numbers buffers across the whole run, so
	// profile queue names (buf0, buf1, ...) stay as if every buffer were
	// fresh.
	bufSeq      int
	bufAccesses int64

	// objs caches each kernel object's slab region, declaration and backing
	// slice; lastObj remembers the most recent hit. addr/Read/Write run once
	// per simulated stream element, and the slab scan + declaration scan +
	// data-map hash they used to pay per element was a visible slice of the
	// whole-repro profile. Streams touch one object for long stretches, so
	// the MRU compare almost always short-circuits on pointer-equal strings.
	objs    []objInfo
	lastObj *objInfo

	// Counters.
	hostInstr      int64
	hostLoads      int64
	hostStores     int64
	accelOps       int64
	accelMemElem   int64 // stream elements + random accesses by accelerators
	combined       int64 // accessors sharing a buffer beyond its first (Fig. 2d)
	launches       int64
	flushedObjs    map[string]bool
	configured     map[int]bool // accel IDs whose cp_config was transferred
	inflightWrites map[string]bool

	slotCycles  float64 // host issue-slot cycles
	memCycles   float64 // host memory stall cycles
	accelBase   int64   // engine base cycles spent in offloads
	accelFreeAt float64 // host-cycle time when accelerator resources free
	cycleAdjust int64   // parallel-section overlap credit (§VI-D)

	// Observability (nil-safe: a nil tracer/profiler disables everything).
	tr        *trace.Tracer
	prof      *profile.Profiler
	ffJumps   int64       // engine fast-forward jumps across launches (profiling)
	ffSkipped int64       // base cycles those jumps never visited
	hostTrace trace.Scope // host-timeline track, absolute base-cycle stamps
	// scoped holds deferred trace-scope attachments for the launch being
	// assembled; they run once the launch's base-cycle offset is known.
	scoped []func(offset int64)
	// Latency histogram handles, taken once at machine build (per-access
	// and per-launch paths must not re-lookup by name); nil when not
	// profiling.
	hostLatH, clusterLatH *profile.Hist
	fillLatH, drainLatH   *profile.Hist
	backendLatH           map[string]*profile.Hist // by backend name
}

// backendLatency names each accelerator backend's latency histogram in the
// stats dump (handed to its engines as backend.LaunchSpec.LatHist).
var backendLatency = map[string]struct{ prefix, desc string }{
	"iocore":  {"latency.iocore.stall_lat", "base-cycle iocore random-access stall latency"},
	"cgra":    {"latency.cgra.iter_lat", "base-cycle CGRA iteration latency"},
	"pimdram": {"latency.pimdram.stall_lat", "base-cycle PIM stall latency"},
}

// newMachine allocates the system's storage. The machine is ready for
// reset, which attaches a run.
func newMachine() *machine {
	meter := energy.NewMeter(energy.Default32nm())
	return &machine{
		meter:          meter,
		mesh:           noc.New(noc.DefaultConfig(), meter),
		dmem:           dram.NewMemory(dram.DefaultConfig(), meter),
		hier:           &cache.Hierarchy{},
		slab:           &dram.Slab{},
		austats:        &accessunit.Stats{},
		eng:            engine.New(),
		flushedObjs:    map[string]bool{},
		configured:     map[int]bool{},
		inflightWrites: map[string]bool{},
		defs:           map[*core.AccelDef]*defInfo{},
	}
}

// storage returns a machine holding only m's storage — its parts, the
// launch pools and the run-scoped maps and tables, emptied — with every
// field that belongs to a run zero.
func (m *machine) storage() machine {
	clear(m.flushedObjs)
	clear(m.configured)
	clear(m.inflightWrites)
	clear(m.defs)
	clear(m.objs)
	clear(m.scoped)
	return machine{
		meter: m.meter, mesh: m.mesh, dmem: m.dmem, hier: m.hier, slab: m.slab,
		austats: m.austats, eng: m.eng, rts: m.rts, plan: m.plan,
		defs: m.defs, bufs: m.bufs, links: m.links, fills: m.fills,
		drains: m.drains, ports: m.ports, engines: m.engines,
		objs: m.objs[:0], scoped: m.scoped[:0],
		flushedObjs: m.flushedObjs, configured: m.configured, inflightWrites: m.inflightWrites,
	}
}

// reset attaches one run to the machine — kernel, params, data (consumed)
// and the configuration's tracer and profiler — leaving it as a freshly
// built machine would be, and lays out the kernel's objects via the slab
// allocator.
func (m *machine) reset(cfg Config, k *ir.Kernel, params map[string]float64, data map[string][]float64) error {
	*m = m.storage()
	m.cfg, m.kernel, m.params, m.data = cfg, k, params, data
	*m.austats = accessunit.Stats{}
	m.meter.Reset(energy.Default32nm())
	m.mesh.Reset(noc.DefaultConfig(), m.meter)
	m.dmem.Reset(dram.DefaultConfig(), m.meter)
	ccfg := cache.DefaultConfig(m.meter.Table)
	ccfg.L2Prefetch = cfg.HostPrefetch
	if err := m.hier.Reset(ccfg, m.dmem, m.mesh, m.meter); err != nil {
		return err
	}
	if err := m.slab.Reset(0, 1<<31, 4096); err != nil {
		return err
	}
	m.tr = cfg.Trace
	m.prof = cfg.Profile
	if m.prof != nil {
		// Per-link and per-channel attribution only allocates (and only pays
		// its accounting) when a profiler is attached.
		m.mesh.EnableLinkProfile()
		m.dmem.EnableChannelProfile(profileDRAMChannels)
		m.hostLatH = m.prof.Hist("latency.host.load_lat", "host-cycle load latency")
		m.clusterLatH = m.prof.Hist("latency.cache.cluster_access_lat", "host-cycle cluster access latency")
		m.fillLatH = m.prof.Hist("latency.au.fill_lat", "base-cycle stream fill latency")
		m.drainLatH = m.prof.Hist("latency.au.drain_lat", "base-cycle stream drain latency")
		m.backendLatH = map[string]*profile.Hist{}
		for be, h := range backendLatency {
			m.backendLatH[be] = m.prof.Hist(h.prefix, h.desc)
		}
	}
	m.hostTrace = m.tr.Component("host").At(0) // nil-safe: disabled scope on nil tracer
	m.eng.Reset()
	m.eng.Mode = cfg.engineMode
	m.eng.CollectFF = m.prof != nil
	span := m.hier.ClusterSpan()
	for i, o := range k.Objects {
		buf, ok := data[o.Name]
		if !ok || len(buf) != o.Len {
			return fmt.Errorf("sim: object %q missing or mis-sized", o.Name)
		}
		if cfg.AllocSpread {
			// Fig. 14 +A: start each object at a fresh cluster span so
			// anchors spread across clusters.
			target := (int64(i%m.hier.Clusters()) * span) % (span * int64(m.hier.Clusters()))
			m.padSlabTo(target, span)
		}
		if _, err := m.slab.Alloc(o.Name, int64(o.Bytes())); err != nil {
			return err
		}
	}
	for _, o := range k.Objects {
		r, _ := m.slab.Lookup(o.Name)
		m.objs = append(m.objs, objInfo{
			name: o.Name, base: r.Base,
			elemBytes: int64(o.ElemBytes), n: int64(o.Len),
			data: data[o.Name],
		})
	}
	return nil
}

// release ends a run: it drops every reference the machine holds to it —
// kernel, params, data, compiled definitions, tracer, profiler and
// histogram handles, in the machine's own fields and in every pooled
// component — keeping the storage for the next reset.
func (m *machine) release() {
	m.eng.Reset()
	for _, b := range m.bufs.items {
		b.Occ = nil
	}
	for _, u := range m.fills.items {
		u.fsm.Release()
		u.mem = simMemory{}
	}
	for _, u := range m.drains.items {
		u.fsm.Release()
		u.mem = simMemory{}
	}
	for _, u := range m.ports.items {
		u.port.Release()
		u.mem = simMemory{}
	}
	for _, p := range m.engines {
		for _, e := range p.items {
			e.Release()
		}
	}
	for _, rt := range m.rts {
		rt.def, rt.eng = nil, nil
	}
	*m = m.storage()
}

// objInfo is one entry of the machine's resolved-object cache.
type objInfo struct {
	name      string
	base      int64
	elemBytes int64
	n         int64
	data      []float64
}

// resolve returns the cached objInfo for obj, or nil if obj is not a
// declared-and-allocated kernel object.
func (m *machine) resolve(obj string) *objInfo {
	if o := m.lastObj; o != nil && o.name == obj {
		return o
	}
	for i := range m.objs {
		if m.objs[i].name == obj {
			m.lastObj = &m.objs[i]
			return m.lastObj
		}
	}
	return nil
}

// padSlabTo inserts padding so the next allocation starts at an address
// congruent to target modulo the cluster ring.
func (m *machine) padSlabTo(target, span int64) {
	// Allocate throwaway padding objects until the next base lines up.
	for i := 0; ; i++ {
		r, err := m.slab.Alloc(fmt.Sprintf("_pad%d_%d", target, i), 64)
		if err != nil {
			return
		}
		if (r.Base/span)%8 == (target/span)%8 {
			return
		}
	}
}

// hostTimeline returns the host's own cycle count (issue slots, memory
// stalls, waits) without in-flight accelerator work.
func (m *machine) hostTimeline() float64 {
	return m.slotCycles + m.memCycles + float64(m.cycleAdjust)
}

// hostTS maps the host timeline onto the run-global base-cycle clock used
// for trace timestamps.
func (m *machine) hostTS() int64 {
	return int64(m.hostTimeline() * float64(hostDiv))
}

// syncAccel blocks the host until outstanding offloads complete (barriers,
// chunk boundaries).
func (m *machine) syncAccel() {
	if wait := m.accelFreeAt - m.hostTimeline(); wait > 0 {
		m.hostTrace.Span("wait-accel", m.hostTS(), int64(wait*float64(hostDiv)))
		m.memCycles += wait
	}
	clear(m.inflightWrites)
}

// joinIfWritten synchronizes with outstanding offloads before the host
// touches an object they write.
func (m *machine) joinIfWritten(obj string) {
	if m.inflightWrites[obj] {
		m.syncAccel()
	}
}

// hostCycles returns the end-to-end cycle count: the host timeline or the
// accelerator timeline, whichever is behind — launches without host
// read-backs overlap with host execution (§V-B "the offload model allows
// concurrent execution of the host and multiple accelerators").
func (m *machine) hostCycles() int64 {
	t := m.hostTimeline()
	if m.accelFreeAt > t {
		t = m.accelFreeAt
	}
	return int64(t)
}

// addr returns the physical address of obj[idx].
func (m *machine) addr(obj string, idx int64) (int64, error) {
	o := m.resolve(obj)
	if o == nil {
		return 0, m.addrErr(obj)
	}
	if idx < 0 || idx >= o.n {
		return 0, fmt.Errorf("sim: index %d out of range for %q (len %d)", idx, obj, o.n)
	}
	return o.base + idx*o.elemBytes, nil
}

// addrErr diagnoses a resolve miss (off the hot path).
func (m *machine) addrErr(obj string) error {
	if _, ok := m.slab.Lookup(obj); !ok {
		return fmt.Errorf("sim: unallocated object %q", obj)
	}
	return fmt.Errorf("sim: undeclared object %q", obj)
}

// simMemory adapts the machine's object store to accessunit.Memory. Each
// instance carries its own MRU resolve cursor, so access units streaming
// different objects do not evict each other's hit.
type simMemory struct {
	m    *machine
	last *objInfo
}

// resolve is machine.resolve against the instance-local cursor.
func (s *simMemory) resolve(obj string) *objInfo {
	if o := s.last; o != nil && o.name == obj {
		return o
	}
	for i := range s.m.objs {
		if s.m.objs[i].name == obj {
			s.last = &s.m.objs[i]
			return s.last
		}
	}
	return nil
}

func (s *simMemory) Read(obj string, idx int64) (float64, error) {
	o := s.resolve(obj)
	if o == nil {
		return 0, s.m.addrErr(obj)
	}
	if idx < 0 || idx >= o.n {
		return 0, fmt.Errorf("sim: index %d out of range for %q (len %d)", idx, obj, o.n)
	}
	return o.data[idx], nil
}

func (s *simMemory) Write(obj string, idx int64, v float64) error {
	o := s.resolve(obj)
	if o == nil {
		return s.m.addrErr(obj)
	}
	if idx < 0 || idx >= o.n {
		return fmt.Errorf("sim: index %d out of range for %q (len %d)", idx, obj, o.n)
	}
	o.data[idx] = v
	return nil
}

func (s *simMemory) AddrOf(obj string, idx int64) (int64, error) {
	o := s.resolve(obj)
	if o == nil {
		return 0, s.m.addrErr(obj)
	}
	if idx < 0 || idx >= o.n {
		return 0, fmt.Errorf("sim: index %d out of range for %q (len %d)", idx, obj, o.n)
	}
	return o.base + idx*o.elemBytes, nil
}

func (s *simMemory) ElemBytes(obj string) (int, error) {
	if o := s.resolve(obj); o != nil {
		return int(o.elemBytes), nil
	}
	return 0, fmt.Errorf("sim: undeclared object %q", obj)
}

// clusterFetcher adapts the hierarchy to accessunit.Fetcher, converting
// host-cycle latencies to base cycles. prefetchHalve models Fig. 14's
// software prefetching (latency of random loads largely hidden).
type clusterFetcher struct {
	hier          *cache.Hierarchy
	meter         *energy.Meter
	latH          *profile.Hist
	prefetchHalve bool
}

func (f clusterFetcher) Access(cluster int, addr int64, write bool, bytes int) int {
	lat, _ := f.hier.ClusterAccess(cluster, addr, write, bytes)
	if f.prefetchHalve && !write {
		lat = lat/2 + 1
		f.meter.Add(energy.CatAccel, f.meter.Table.PrefetchPJ)
	}
	f.latH.Observe(float64(lat))
	return lat * int(hostDiv)
}

func (f clusterFetcher) LineBytes() int { return 64 }

// privFetcher is the Mono-CA private cache in front of the L3 bus: probes
// an 8 KB cache before issuing a centralized access from the accel node.
type privFetcher struct {
	m    *machine
	priv *cache.Level
	node int
}

func newPrivFetcher(m *machine, kb, node int) (*privFetcher, error) {
	lvl, err := cache.NewLevel(cache.LevelConfig{
		Name: "priv", SizeBytes: kb << 10, Ways: 4, LineBytes: 64,
		Latency: 2, EnergyPJ: m.meter.Table.L1AccessPJ, EnergyCat: energy.CatAccel,
	}, m.meter)
	if err != nil {
		return nil, err
	}
	return &privFetcher{m: m, priv: lvl, node: node}, nil
}

func (f *privFetcher) Access(cluster int, addr int64, write bool, bytes int) int {
	lat := f.priv.Latency()
	if f.priv.Access(addr, write) {
		return lat * int(hostDiv)
	}
	l3lat, _ := f.m.hier.ClusterAccess(f.node, addr, write, bytes)
	lat += l3lat
	if ev, dirty, ok := f.priv.Insert(addr, write); ok && dirty {
		f.m.hier.ClusterAccess(f.node, ev, true, 64)
	}
	return lat * int(hostDiv)
}

func (f *privFetcher) LineBytes() int { return 64 }

// dramFetcher is the §VII off-chip extension path: an accelerator placed
// at the memory controller reads and writes DRAM lines directly, paying
// device latency but no NoC traversal and no L3 occupancy.
type dramFetcher struct{ dmem *dram.Memory }

func (f dramFetcher) Access(cluster int, addr int64, write bool, bytes int) int {
	return f.dmem.AccessAt(addr, write) * int(hostDiv)
}

func (f dramFetcher) LineBytes() int { return 64 }

// profileDRAMChannels is the channel fan-out used for per-channel DRAM
// attribution: pages interleave across four channels (observational only —
// the timing model keeps its single aggregate latency).
const profileDRAMChannels = 4

// newBuffer hands out a decoupling buffer for the current launch,
// recycled through Reset, attaching an occupancy histogram when profiling
// is on.
func (m *machine) newBuffer() (*accessunit.Buffer, error) {
	b := m.bufs.get()
	if err := b.Reset(m.cfg.BufElems, m.meter); err != nil {
		return nil, err
	}
	if m.prof != nil {
		b.Occ = m.prof.Hist(fmt.Sprintf("queue.buffer.buf%d.occ", m.bufSeq), "occupancy")
	}
	m.bufSeq++
	return b, nil
}

// rewindPools returns every launch component to its pool.
func (m *machine) rewindPools() {
	m.bufs.rewind()
	m.links.rewind()
	m.fills.rewind()
	m.drains.rewind()
	m.ports.rewind()
	for _, p := range m.engines {
		p.n = 0
	}
}

// enginePool recycles one backend's engines. Like pool, its first n
// engines are in use by the current launch; get re-arms a recycled engine
// through Engine.Reset and builds one through the backend's NewEngine
// only when none is left.
type enginePool struct {
	be    backend.Backend
	items []backend.Engine
	n     int
}

// enginePool returns be's engine pool, creating it on be's first launch.
func (m *machine) enginePool(be backend.Backend) *enginePool {
	for _, p := range m.engines {
		if p.be.Name() == be.Name() {
			return p
		}
	}
	p := &enginePool{be: be}
	m.engines = append(m.engines, p)
	return p
}

// get hands out an engine armed for spec.
func (p *enginePool) get(spec backend.LaunchSpec) (backend.Engine, error) {
	if p.n == len(p.items) {
		e, err := p.be.NewEngine(spec)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, e)
	} else if err := p.items[p.n].Reset(spec); err != nil {
		return nil, err
	}
	p.n++
	return p.items[p.n-1], nil
}

// live returns the engines handed out since the last rewind.
func (p *enginePool) live() []backend.Engine { return p.items[:p.n] }

// defInfo is what the launch path derives from one accelerator definition
// alone, once per run.
type defInfo struct {
	// launched is set once the definition's first launch has sent its
	// scalars (with the one-time cp_config).
	launched bool
	// perLaunch[i] reports that ScalarInit[i] may change from launch to
	// launch (it reads an induction variable, a load or a local), so its
	// cp_set_rf is sent at every launch.
	perLaunch []bool
	// prefill is the set of objects cp_fill_ra block-fetches, shared
	// read-only by the random port of every launch (nil: none).
	prefill map[string]bool
}

// defInfoOf returns def's launch-invariant derivations, building them on
// its first launch.
func (m *machine) defInfoOf(def *core.AccelDef) *defInfo {
	if di := m.defs[def]; di != nil {
		return di
	}
	di := &defInfo{perLaunch: make([]bool, len(def.ScalarInit))}
	for i, sb := range def.ScalarInit {
		di.perLaunch[i] = !launchInvariant(sb.Expr)
	}
	if len(def.Prefill) > 0 {
		di.prefill = make(map[string]bool, len(def.Prefill))
		for _, obj := range def.Prefill {
			di.prefill[obj] = true
		}
	}
	m.defs[def] = di
	return di
}

// pool recycles launch components: the first n items are in use by the
// launch being assembled or run, and rewind returns them all.
type pool[T any] struct {
	items []*T
	n     int
}

// get hands out the next item; the caller resets it.
func (p *pool[T]) get() *T {
	if p.n == len(p.items) {
		p.items = append(p.items, new(T))
	}
	p.n++
	return p.items[p.n-1]
}

// live returns the items handed out since the last rewind.
func (p *pool[T]) live() []*T { return p.items[:p.n] }

func (p *pool[T]) rewind() { p.n = 0 }

// fillUnit, drainUnit and portUnit pair a recycled access-unit component
// with its memory adapter: each component resolves objects through its
// own MRU cursor, so units streaming different objects do not evict each
// other's hit. Each use resets the adapter to a cold cursor along with
// the component.
type fillUnit struct {
	fsm accessunit.StreamIn
	mem simMemory
}

type drainUnit struct {
	fsm accessunit.StreamOut
	mem simMemory
}

type portUnit struct {
	port accessunit.RandomPort
	mem  simMemory
}

// addLink wires a recycled local link from src to dst and registers both
// halves with the engine, Tx first.
func (m *machine) addLink(src, dst *accessunit.Buffer, srcNode, dstNode, elemBytes int) {
	l := m.links.get()
	l.Reset(src, dst, m.mesh, srcNode, dstNode, elemBytes, m.austats)
	m.eng.Add(&l.Tx, 2)
	m.eng.Add(&l.Rx, 2)
}

// intraBytes is the buffer-internal traffic (Fig. 9 "intra").
func (m *machine) intraBytes() int64 { return 8 * m.bufAccesses }
