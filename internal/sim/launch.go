package sim

import (
	"fmt"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/ir"
	"distda/internal/microcode"
	"distda/internal/noc"
	"distda/internal/trace"
)

// combineWindow is the multi-access combining window (Fig. 2d), in
// elements. A launch clamps it to half the buffer: a combined accessor's
// read offset must fit inside the shared window.
const combineWindow = 64

// accelRT is the per-launch runtime state of one accelerator definition.
// The machine recycles accelRTs from launch to launch (machine.rts), so
// every per-access table is a slice indexed by the definition's dense
// access id, reset rather than reallocated.
type accelRT struct {
	def     *core.AccelDef
	cluster int
	offChip bool  // §VII: placed at the memory controller
	trips   int64 // orchestrator count; -1 selects while-input
	streams []core.EvaledStream
	// inPorts / outPorts point into inStore / outStore; unwired accesses
	// hold nil. The backend engine indexes them directly.
	inPorts  []*accessunit.InPort
	outPorts []*accessunit.OutPort
	inStore  []accessunit.InPort
	outStore []accessunit.OutPort
	// chanSrc / chanCons: channel endpoint buffers by access-id.
	chanSrc  []*accessunit.Buffer
	chanCons []*accessunit.Buffer
	eng      backend.Engine // the launch's engine: cp_set_rf / cp_load_rf go here
}

// reset prepares rt for one launch of def, keeping its storage.
func (rt *accelRT) reset(def *core.AccelDef) {
	n := len(def.Accesses)
	*rt = accelRT{
		def:      def,
		streams:  clearResize(rt.streams, n),
		inPorts:  clearResize(rt.inPorts, n),
		outPorts: clearResize(rt.outPorts, n),
		inStore:  clearResize(rt.inStore, n),
		outStore: clearResize(rt.outStore, n),
		chanSrc:  clearResize(rt.chanSrc, n),
		chanCons: clearResize(rt.chanCons, n),
	}
}

// setIn wires access id's input port to b, reading from startSeq.
func (rt *accelRT) setIn(id int, b *accessunit.Buffer, startSeq int64) {
	rt.inStore[id].Attach(b, startSeq)
	rt.inPorts[id] = &rt.inStore[id]
}

// setOut wires access id's output port to b.
func (rt *accelRT) setOut(id int, b *accessunit.Buffer) {
	rt.outStore[id] = accessunit.OutPort{Buf: b}
	rt.outPorts[id] = &rt.outStore[id]
}

// clearResize returns s with length n and every element zeroed,
// reallocating only when it is too short.
func clearResize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// mmioHost accounts one host-initiated MMIO transaction to a cluster.
func (m *machine) mmioHost(in core.Intrinsic, cluster int) {
	m.mmio.Record(in)
	m.meter.Add(energy.CatMMIO, m.meter.Table.MMIOPJ)
	m.mesh.Transfer(m.hier.HostNode(), cluster, 8, noc.HostCtrl)
	m.slotCycles += 4
	m.hostInstr++
}

// launch configures, runs and tears down one offload region instance. l
// evaluates the region's launch-time expressions where the loop stands,
// in core.Region.LaunchExprs order, and takes its read-back locals.
//
// Assembly reuses the machine's launch state (see machine.go): the accelRT
// tables, the engine, the buffer plan, the decoupling buffers, the links,
// stream FSMs, random ports and backend engines, the backend memo and what
// the launch derives from each definition all carry over from the previous
// launch, so a steady-state launch allocates nothing.
func (h *host) launch(reg *core.Region, l ir.Launch) {
	m := h.m
	next := 0 // the next launch-time expression
	eval := func() float64 {
		next++
		return l.Eval(next - 1)
	}
	// Evaluate every accel's orchestrator count; an all-empty region is
	// skipped (the host's bound evaluation was already charged).
	rts := m.acquireRTs(reg)
	any := false
	for _, rt := range rts {
		if rt.def.Trip.Kind == core.TripCounted {
			rt.trips = int64(eval())
			if rt.trips > 0 {
				any = true
			}
		} else {
			rt.trips = -1 // while-input
			any = true
		}
	}
	if !any {
		return
	}
	m.launches++
	be := m.be
	if be == nil {
		m.failf("launch: region %s has no accelerator backend (%q)", reg.Name, m.cfg.Backend)
	}
	m.scoped = m.scoped[:0] // deferred trace attachments for this launch
	// Profiling: the dispatch phase spans every host cycle from here (flush,
	// buffer planning, MMIO configuration) until the engine takes over.
	dispatchStart := m.hostTimeline()

	// Software-managed coherence: push host-dirty copies of offload-visible
	// objects to their home banks once per kernel (§IV-D).
	flushT0 := m.hostTS()
	for _, a := range reg.Accels {
		for _, obj := range a.Objects {
			if m.flushedObjs[obj] {
				continue
			}
			m.flushedObjs[obj] = true
			r, ok := m.slab.Lookup(obj)
			if !ok {
				m.failf("launch: unallocated object %q", obj)
			}
			m.memCycles += float64(m.hier.FlushRange(r.Base, r.Bytes))
		}
	}
	if t1 := m.hostTS(); t1 > flushT0 && m.hostTrace.Enabled() {
		m.hostTrace.Span("flush", flushT0, t1-flushT0, trace.KV{K: "region", V: reg.Name})
	}

	// Pass 1: evaluate stream configurations and place accelerators.
	for _, rt := range rts {
		for _, acc := range rt.def.Accesses {
			if acc.Kind == core.StreamIn || acc.Kind == core.StreamOut {
				rt.streams[acc.ID] = core.EvaledStream{
					Start:  int64(eval()),
					Stride: int64(eval()),
					Length: int64(eval()),
				}
			}
		}
		rt.cluster = m.placeAccel(reg, rt)
		if m.cfg.OffChip && rt.def.AnchorObj != "" {
			if d, ok := m.kernel.Object(rt.def.AnchorObj); ok && d.Bytes() >= m.cfg.OffChipThreshold {
				rt.offChip = true
				rt.cluster = 7 // the memory-controller node
			}
		}
	}
	// Anchor-less accels co-locate with their first channel peer.
	for _, rt := range rts {
		if rt.cluster >= 0 {
			continue
		}
		rt.cluster = m.hier.HostNode()
		for _, acc := range rt.def.Accesses {
			if acc.Kind == core.ChanIn || acc.Kind == core.ChanOut {
				if peer := rts[acc.Peer.Accel]; peer.cluster >= 0 {
					rt.cluster = peer.cluster
					break
				}
			}
		}
	}
	// In-DRAM backends execute at the memory controller: every engine and
	// its access FSMs sit at the channel and fetch through the direct-DRAM
	// path — resident data never crosses the on-chip NoC.
	if be.Caps().InDRAM {
		for _, rt := range rts {
			rt.offChip = true
			rt.cluster = 7 // the memory-controller node
		}
	}

	m.eng.Reset()
	m.rewindPools()

	// Pass 2: buffers, FSMs, links for stream accesses; channel endpoint
	// buffers.
	window := min(int64(combineWindow), int64(m.cfg.BufElems)/2)
	plan := &m.plan
	for _, rt := range rts {
		if err := plan.Plan(rt.def, rt.streams, window, m.cfg.Combining); err != nil {
			m.failf("launch: %v", err)
		}
		m.alloc.RecordLaunch(plan)
		if !m.configured[rt.def.ID] {
			m.configured[rt.def.ID] = true
			m.mmioHost(core.CpConfig, rt.cluster)
		}
		for _, ba := range plan.Buffers {
			if len(ba.Accesses) > 1 {
				// Multi-access combining (Fig. 2d): accessors beyond the
				// first share the buffer instead of owning one.
				m.combined += int64(len(ba.Accesses) - 1)
			}
			first := rt.def.Accesses[ba.Accesses[0]]
			switch first.Kind {
			case core.StreamIn:
				if err := m.wireStreamIn(rt, ba); err != nil {
					m.failf("launch: %v", err)
				}
			case core.StreamOut:
				if err := m.wireStreamOut(rt, ba); err != nil {
					m.failf("launch: %v", err)
				}
			case core.ChanOut:
				b, err := m.newBuffer()
				if err != nil {
					m.failf("launch: %v", err)
				}
				rt.chanSrc[first.ID] = b
				rt.setOut(first.ID, b)
			case core.ChanIn:
				b, err := m.newBuffer()
				if err != nil {
					m.failf("launch: %v", err)
				}
				rt.chanCons[first.ID] = b
				rt.setIn(first.ID, b, 0)
			}
		}
	}

	// Pass 3: links between channel endpoints.
	for _, rt := range rts {
		for _, acc := range rt.def.Accesses {
			if acc.Kind != core.ChanOut {
				continue
			}
			peer := rts[acc.Peer.Accel]
			dst := peer.chanCons[acc.Peer.Access]
			if dst == nil {
				m.failf("launch: channel %d.%d has no consumer buffer", rt.def.ID, acc.ID)
			}
			m.addLink(rt.chanSrc[acc.ID], dst, rt.cluster, peer.cluster, acc.ElemBytes)
		}
	}

	// Pass 4: backend engines, scalar initialization, cp_run.
	pool := m.pool
	for _, rt := range rts {
		di := m.defInfoOf(rt.def)
		fetch := m.fetcherFor(rt.cluster, rt.offChip)
		pu := m.ports.get()
		pu.mem = simMemory{m: m}
		rp := &pu.port
		rp.Reset(&pu.mem, fetch, rt.cluster, m.austats, m.meter)
		if len(rt.def.Prefill) > 0 {
			rp.Prefill = di.prefill
			for _, obj := range rt.def.Prefill {
				// cp_fill_ra: block-fetch the object window line by line.
				r, ok := m.slab.Lookup(obj)
				if !ok {
					m.failf("launch: prefill of unallocated object %q", obj)
				}
				fillHost := 0
				for addr := r.Base; addr < r.End(); addr += 64 {
					lat, _ := m.hier.ClusterAccess(rt.cluster, addr, false, 64)
					// Fills pipeline: the port is busy a fraction of the
					// access latency per line.
					fillHost += lat / 4
					m.austats.DABytes += 64
				}
				m.accelBase += int64(fillHost) * hostDiv
				m.mmio.Record(core.CpFillRA)
				m.mmioHost(core.CpConfigRandom, rt.cluster)
			}
		}
		e, err := pool.get(backend.LaunchSpec{
			Def: rt.def, Trips: rt.trips,
			In: rt.inPorts, Out: rt.outPorts, Random: rp,
			GHz: m.cfg.AccelGHz, Width: m.cfg.IOWidth,
			Meter: m.meter, LatHist: m.backendLatH, Opts: m.cfg.BackendOpts,
			Memo: &m.memo,
		})
		if err != nil {
			m.failf("launch: backend %s: %v", m.cfg.Backend, err)
		}
		if m.tr != nil {
			m.scoped = append(m.scoped, func(off int64) { e.AttachTrace(m.tr, off) })
		}
		rt.eng = e
		m.eng.Add(e, m.cfg.AccelGHz)
		firstLaunch := !di.launched
		di.launched = true
		for i := range rt.def.ScalarInit {
			sb := &rt.def.ScalarInit[i]
			e.SetReg(sb.Reg, eval())
			// Launch-invariant scalars (pure params/constants) travel with
			// the one-time cp_config; only per-launch values (outer IVs,
			// loads) cost an MMIO write each launch.
			if firstLaunch || di.perLaunch[i] {
				m.mmioHost(core.CpSetRF, rt.cluster)
			}
		}
		for _, acc := range rt.def.Accesses {
			switch acc.Kind {
			case core.StreamIn, core.StreamOut:
				m.mmioHost(core.CpConfigStream, rt.cluster)
			}
		}
		m.recordProgramMechanisms(rt.def.Program)
		m.mmioHost(core.CpRun, rt.cluster)
	}
	engines := pool.live()

	// Accelerator timeline: this launch occupies the accelerator resources
	// after any prior in-flight launch. The host blocks (cp_consume
	// semantics, §V-B) only when it reads a scalar back; otherwise it runs
	// ahead, overlapping with the offload. The launch's start on the
	// run-global clock is known before the engine runs (nothing changes the
	// host timeline until it returns), so trace scopes attach here: each
	// per-launch engine clock starts at zero and the offset maps its events
	// onto the global timeline.
	hostNow := m.hostTimeline()
	start := hostNow
	if m.accelFreeAt > start {
		start = m.accelFreeAt
	}
	if m.tr != nil {
		off := int64(start * float64(hostDiv))
		for _, attach := range m.scoped {
			attach(off)
		}
		m.scoped = m.scoped[:0]
		m.eng.Trace = m.tr.Component("engine").At(off)
	}

	base, err := m.eng.Run(m.cfg.MaxEngine)
	if err != nil {
		m.failf("launch of %s: %v", reg.Name, err)
	}
	m.accelBase += base
	m.ffJumps += m.eng.FFJumps
	m.ffSkipped += m.eng.FFSkipped
	for _, b := range m.bufs.live() {
		m.bufAccesses += b.Pushes + b.Pops
	}

	engHost := float64(base) / float64(hostDiv)
	m.accelFreeAt = start + engHost
	if m.hostTrace.Enabled() {
		m.hostTrace.Span("launch:"+reg.Name, int64(start*float64(hostDiv)), base,
			trace.KV{K: "accels", V: int64(len(rts))}, trace.KV{K: "base_cycles", V: base})
	}
	// Profiling: writeback spans the host cycles from here through the
	// cp_load_rf read-back loop (sync waits included).
	wbStart := m.hostTimeline()
	needsSync := false
	for _, rt := range rts {
		if len(rt.def.ScalarOut) > 0 {
			needsSync = true
		}
	}
	if needsSync {
		if wait := m.accelFreeAt - hostNow; wait > 0 {
			m.hostTrace.Span("wait-accel", int64(hostNow*float64(hostDiv)), int64(wait*float64(hostDiv)))
			m.memCycles += wait
		}
		clear(m.inflightWrites)
	} else {
		for _, rt := range rts {
			for _, acc := range rt.def.Accesses {
				if acc.Kind == core.StreamOut {
					m.inflightWrites[acc.Obj] = true
				}
			}
			for i := range rt.def.Program {
				if op := &rt.def.Program[i]; op.Code == microcode.StoreObj {
					m.inflightWrites[op.Obj] = true
				}
			}
		}
	}

	// cp_load_rf read-back of carried locals.
	out := 0
	for _, rt := range rts {
		for _, sb := range rt.def.ScalarOut {
			l.SetOut(out, rt.eng.Reg(sb.Reg))
			out++
			m.mmioHost(core.CpLoadRF, rt.cluster)
		}
	}
	for _, e := range engines {
		m.accelOps += e.Ops()
	}
	for _, pu := range m.ports.live() {
		m.accelMemElem += pu.port.Loads + pu.port.Stores
	}

	if m.prof != nil {
		// Offload latency phases (base cycles): dispatch covers the host-side
		// flush + configuration, queue the wait behind a prior in-flight
		// launch, execute the engine run, writeback the sync + read-back.
		pr := m.prof.Region(m.kernel.Name, reg.Name)
		dispatch := int64((hostNow - dispatchStart) * float64(hostDiv))
		queue := int64((start - hostNow) * float64(hostDiv))
		writeback := int64((m.hostTimeline() - wbStart) * float64(hostDiv))
		pr.AddLaunch(dispatch, queue, base, writeback)
		// Per-component attribution. A recycled engine's Reset zeroes its
		// counters, so they are per-launch values; each backend folds its
		// own breakdown (core busy/stall, per-tile CGRA occupancy, ...) in.
		for _, e := range engines {
			e.AddProfile(m.prof, pr)
		}
	}
}

// acquireRTs returns one recycled accelRT per accelerator of reg, each
// reset for its definition.
func (m *machine) acquireRTs(reg *core.Region) []*accelRT {
	for len(m.rts) < len(reg.Accels) {
		m.rts = append(m.rts, &accelRT{})
	}
	rts := m.rts[:len(reg.Accels)]
	for i, def := range reg.Accels {
		rts[i].reset(def)
	}
	return rts
}

// placeAccel chooses the accelerator's cluster: Mono-CA pins everything to
// the bus node; Mono-DA pins compute to the region's largest object; Dist
// anchors each partition at its object's home (§V-A-4, §V-B). Returns -1
// when the accel has no anchor (resolved to a peer's cluster by the
// caller).
func (m *machine) placeAccel(reg *core.Region, rt *accelRT) int {
	if m.cfg.PlaceAtHost || m.cfg.Centralized {
		return m.hier.HostNode()
	}
	if !m.cfg.Distribute {
		// Monolithic compute: home of the region's largest object.
		big, size := "", -1
		for _, a := range reg.Accels {
			for _, obj := range a.Objects {
				if d, ok := m.kernel.Object(obj); ok && d.Bytes() > size {
					big, size = obj, d.Bytes()
				}
			}
		}
		if big == "" {
			return m.hier.HostNode()
		}
		r, _ := m.slab.Lookup(big)
		return m.hier.HomeCluster(r.Base)
	}
	def := rt.def
	if def.Place == core.PlaceHost {
		return m.hier.HostNode()
	}
	if def.AnchorObj == "" {
		return -1
	}
	// Home of the first accessed element (greedy horizontal placement).
	r, ok := m.slab.Lookup(def.AnchorObj)
	if !ok {
		m.failf("placeAccel: unallocated anchor %q", def.AnchorObj)
	}
	addr := r.Base
	for _, acc := range def.Accesses {
		if (acc.Kind == core.StreamIn || acc.Kind == core.StreamOut) && acc.Obj == def.AnchorObj {
			ev := rt.streams[acc.ID]
			cand := r.Base + ev.Start*int64(acc.ElemBytes)
			if cand >= r.Base && cand < r.End() {
				addr = cand
			}
			break
		}
	}
	return m.hier.HomeCluster(addr)
}

// fetcherFor returns the cache-path fetcher for an accelerator or access
// FSM at cluster. The private-cache path is shared across accelerators and
// launches.
func (m *machine) fetcherFor(cluster int, offChip bool) accessunit.Fetcher {
	if offChip {
		return dramFetcher{dmem: m.dmem}
	}
	if m.cfg.Centralized && m.cfg.PrivCacheKB > 0 {
		if m.priv == nil {
			pf, err := newPrivFetcher(m, m.cfg.PrivCacheKB, cluster)
			if err != nil {
				m.failf("%v", err)
			}
			m.priv = pf
		}
		return m.priv
	}
	if m.clusterFetch == nil {
		m.clusterFetch = clusterFetcher{hier: m.hier, meter: m.meter, latH: m.clusterLatH, prefetchHalve: m.cfg.SWPrefetch}
	}
	return m.clusterFetch
}

// wireStreamIn builds the fill FSM for one (possibly combined) stream-in
// buffer and the per-accessor read ports; a remote fill FSM (decentralized
// access with monolithic compute) forwards over a link.
func (m *machine) wireStreamIn(rt *accelRT, ba core.BufferAlloc) error {
	first := rt.def.Accesses[ba.Accesses[0]]
	// Union window over combined accessors.
	minStart, maxStart := rt.streams[ba.Accesses[0]].Start, rt.streams[ba.Accesses[0]].Start
	stride := rt.streams[ba.Accesses[0]].Stride
	for _, id := range ba.Accesses[1:] {
		s := rt.streams[id].Start
		if s < minStart {
			minStart = s
		}
		if s > maxStart {
			maxStart = s
		}
	}
	length := rt.streams[ba.Accesses[0]].Length
	if stride > 0 {
		length += (maxStart - minStart) / stride
	}
	fsmCluster := m.fsmCluster(rt, ba.Obj, minStart, first.ElemBytes)
	fsmBuf, err := m.newBuffer()
	if err != nil {
		return err
	}
	fu := m.fills.get()
	fu.mem = simMemory{m: m}
	fsm := &fu.fsm
	if err := fsm.Reset(fsmBuf, &fu.mem, m.fetcherFor(fsmCluster, rt.offChip),
		fsmCluster, ba.Obj, minStart, stride, length, m.austats, m.meter); err != nil {
		return err
	}
	fsm.LatHist = m.fillLatH
	if m.tr != nil {
		obj := ba.Obj
		m.scoped = append(m.scoped, func(off int64) {
			fsm.Trace = m.tr.Component("fill:" + obj).At(off)
		})
	}
	m.eng.Add(fsm, 2)
	m.mmio.Record(core.CpFillBuf)
	m.accelMemElem += length

	consumerBuf := fsmBuf
	if fsmCluster != rt.cluster {
		consBuf, err := m.newBuffer()
		if err != nil {
			return err
		}
		m.addLink(fsmBuf, consBuf, fsmCluster, rt.cluster, first.ElemBytes)
		consumerBuf = consBuf
	}
	for _, id := range ba.Accesses {
		offset := int64(0)
		if stride > 0 {
			offset = (rt.streams[id].Start - minStart) / stride
		}
		rt.setIn(id, consumerBuf, offset)
	}
	return nil
}

// wireStreamOut builds the drain path for one stream-out access: the core
// produces into a local buffer; the drain FSM sits with the data (or with
// the accel when centralized), behind a link when remote.
func (m *machine) wireStreamOut(rt *accelRT, ba core.BufferAlloc) error {
	if len(ba.Accesses) != 1 {
		return fmt.Errorf("sim: combined stream-out buffers are not supported")
	}
	id := ba.Accesses[0]
	acc := rt.def.Accesses[id]
	ev := rt.streams[id]
	fsmCluster := m.fsmCluster(rt, ba.Obj, ev.Start, acc.ElemBytes)
	prodBuf, err := m.newBuffer()
	if err != nil {
		return err
	}
	drainBuf := prodBuf
	if fsmCluster != rt.cluster {
		db, err := m.newBuffer()
		if err != nil {
			return err
		}
		m.addLink(prodBuf, db, rt.cluster, fsmCluster, acc.ElemBytes)
		drainBuf = db
	}
	du := m.drains.get()
	du.mem = simMemory{m: m}
	fsm := &du.fsm
	if err := fsm.Reset(drainBuf, &du.mem, m.fetcherFor(fsmCluster, rt.offChip),
		fsmCluster, ba.Obj, ev.Start, ev.Stride, m.austats, m.meter); err != nil {
		return err
	}
	fsm.LatHist = m.drainLatH
	if m.tr != nil {
		obj := ba.Obj
		m.scoped = append(m.scoped, func(off int64) {
			fsm.Trace = m.tr.Component("drain:" + obj).At(off)
		})
	}
	m.eng.Add(fsm, 2)
	m.mmio.Record(core.CpDrainBuf)
	m.accelMemElem += ev.Length
	rt.setOut(id, prodBuf)
	return nil
}

// fsmCluster places the access FSM of rt's stream over obj starting at
// obj[idx]: with the accelerator when accesses are centralized or off
// chip, else at the home cluster of obj[idx] (clamped into range).
func (m *machine) fsmCluster(rt *accelRT, obj string, idx int64, elemBytes int) int {
	if m.cfg.Centralized || rt.offChip {
		return rt.cluster
	}
	r, ok := m.slab.Lookup(obj)
	if !ok {
		m.failf("fsmCluster: unallocated object %q", obj)
	}
	addr := r.Base + idx*int64(elemBytes)
	if addr < r.Base {
		addr = r.Base
	}
	if addr >= r.End() {
		addr = r.End() - 1
	}
	return m.hier.HomeCluster(addr)
}

// recordProgramMechanisms marks Table V coverage from the micro-program.
func (m *machine) recordProgramMechanisms(p microcode.Program) {
	for i := range p {
		switch p[i].Code {
		case microcode.Consume:
			m.mmio.Record(core.CpConsume)
			m.mmio.Record(core.CpStep)
		case microcode.Produce:
			m.mmio.Record(core.CpProduce)
			m.mmio.Record(core.CpStep)
		case microcode.LoadObj:
			m.mmio.Record(core.CpRead)
		case microcode.StoreObj:
			m.mmio.Record(core.CpWrite)
		}
	}
}

// launchInvariant reports whether a scalar-init expression has the same
// value at every launch (no induction variables, no loads).
func launchInvariant(e ir.Expr) bool {
	ok := true
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x.(type) {
		case ir.IV, ir.Load, ir.Local:
			ok = false
		}
	})
	return ok
}
