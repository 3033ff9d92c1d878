package sim

import (
	"fmt"

	"distda/internal/energy"
	"distda/internal/noc"
)

// snapshotProfile folds the machine's end-of-run state into the attached
// profiler: per-component busy/stall cycles (in engine base cycles, so
// every component shares one denominator), event counts and the energy
// meter's per-category joules. Purely observational — called once from
// collect, after every counter is final. No-op when no profiler is
// attached.
func (m *machine) snapshotProfile(res *Result) {
	p := m.prof
	if p == nil {
		return
	}
	totalBase := res.Cycles * hostDiv
	p.AddRun(totalBase)

	// Host pipeline: issue slots are useful work, memory stalls are stalls.
	host := p.Component("host", "cpu")
	host.AddBusy(int64(m.slotCycles) * hostDiv)
	host.AddStall(int64(m.memCycles) * hostDiv)
	host.AddEvents(m.hostInstr)
	host.AddEnergy(m.meter.Get(energy.CatHost))

	// Cache levels: occupancy approximated as accesses × level latency.
	l1, l2, l3 := m.hier.Levels()
	cl1 := p.Component("cache", "l1")
	cl1.AddBusy(l1.Accesses * int64(l1.Latency()) * hostDiv)
	cl1.AddEvents(l1.Accesses)
	cl1.AddEnergy(m.meter.Get(energy.CatL1))
	cl2 := p.Component("cache", "l2")
	cl2.AddBusy(l2.Accesses * int64(l2.Latency()) * hostDiv)
	cl2.AddEvents(l2.Accesses)
	cl2.AddEnergy(m.meter.Get(energy.CatL2))
	var l3Energy = m.meter.Get(energy.CatL3)
	var l3Total int64
	for _, lvl := range l3 {
		l3Total += lvl.Accesses
	}
	for i, lvl := range l3 {
		c := p.Component("cache", fmt.Sprintf("l3.cluster%d", i))
		c.AddBusy(lvl.Accesses * int64(lvl.Latency()) * hostDiv)
		c.AddEvents(lvl.Accesses)
		if l3Total > 0 {
			c.AddEnergy(l3Energy * float64(lvl.Accesses) / float64(l3Total))
		}
	}

	// DRAM channels: the device keeps one aggregate latency; attribution
	// splits accesses (and energy, proportionally) across channels.
	chans := m.dmem.ChannelAccesses()
	dramEnergy := m.meter.Get(energy.CatDRAM)
	perAccessPJ := 0.0
	if m.dmem.Accesses > 0 {
		perAccessPJ = dramEnergy / float64(m.dmem.Accesses)
	}
	for i, acc := range chans {
		if acc == 0 {
			continue
		}
		c := p.Component("dram", fmt.Sprintf("chan%d", i))
		c.AddBusy(acc * int64(m.dmem.LatencyCycles()) * hostDiv)
		c.AddEvents(acc)
		c.AddEnergy(perAccessPJ * float64(acc))
	}

	// NoC links: flit-hops × per-hop latency, energy per flit-hop.
	flitHopPJ := m.meter.Table.NoCFlitHopPJ
	m.mesh.VisitLinks(func(from, to int, flits int64) {
		c := p.Component("noc_link", m.mesh.LinkName(from, to))
		c.AddBusy(flits * 2 * hostDiv) // noc.DefaultConfig HopCycles
		c.AddEvents(flits)
		c.AddEnergy(float64(flits) * flitHopPJ)
	})

	// Access-unit buffers: one event per push/pop, each a single-cycle SRAM
	// touch at the 2 GHz access-unit clock.
	bufEvents := m.bufAccesses
	au := p.Component("au", "buffers")
	au.AddBusy(bufEvents * hostDiv)
	au.AddEvents(bufEvents)
	au.AddEnergy(m.meter.Get(energy.CatBuffer))

	// MMIO controller and the accelerator substrate's aggregate energy (the
	// per-core/fabric components carry cycles; the meter only keeps one
	// accel category).
	mmio := p.Component("mmio", "ctrl")
	mmio.AddEvents(res.MMIOHost)
	mmio.AddEnergy(m.meter.Get(energy.CatMMIO))
	accel := p.Component("accel", "all")
	accel.AddBusy(m.accelBase)
	accel.AddEvents(m.accelOps)
	accel.AddEnergy(m.meter.Get(energy.CatAccel))

	// Engine scheduler effectiveness: fast-forward jumps and the base
	// cycles they skipped (events = jumps, stall = skipped-over cycles).
	sched := p.Component("engine", "scheduler")
	sched.AddBusy(m.accelBase)
	sched.AddEvents(m.ffJumps)
	sched.AddStall(m.ffSkipped)

	// Counters the attribution above does not carry. Every other former
	// -metrics row is derivable from the lines above (docs/OBSERVABILITY.md
	// has the mapping).
	p.Add("host.loads", m.hostLoads)
	p.Add("host.stores", m.hostStores)
	p.Add("accel.mem_elems", m.accelMemElem)
	var h3, m3 int64
	for _, lvl := range l3 {
		h3 += lvl.Hits
		m3 += lvl.Misses
	}
	p.Add("cache.l1_hits", l1.Hits)
	p.Add("cache.l1_misses", l1.Misses)
	p.Add("cache.l2_hits", l2.Hits)
	p.Add("cache.l2_misses", l2.Misses)
	p.Add("cache.l3_hits", h3)
	p.Add("cache.l3_misses", m3)
	p.Add("cache.prefetch_issued", m.hier.PrefetchIssued)
	p.Add("cache.prefetch_useful", m.hier.PrefetchUseful)
	p.Add("dram.reads", m.dmem.Reads)
	p.Add("dram.writes", m.dmem.Writes)
	for _, c := range noc.Classes() {
		p.Add("noc."+c.String()+"_bytes", m.mesh.Bytes[c])
		p.Add("noc."+c.String()+"_messages", m.mesh.Messages[c])
		p.Add("noc."+c.String()+"_flit_hops", m.mesh.FlitHops[c])
	}
	p.Add("au.da_bytes", m.austats.DABytes)
	p.Add("au.aa_bytes", m.austats.AABytes)
	p.Add("au.intra_bytes", m.austats.IntraBytes)
	p.Add("au.combined_accessors", m.combined)

	// Fold the tracer's spans (when both are attached) so stats.txt carries
	// the span aggregates next to the component attribution.
	p.AbsorbTrace(m.tr)
}
