package sim

import (
	"strconv"

	"distda/internal/accessunit"
	"distda/internal/cache"
	"distda/internal/core"
	"distda/internal/dram"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/engine/shard"
	"distda/internal/noc"
	"distda/internal/profile"
	"distda/internal/trace"
)

// This file is the simulator half of intra-run sharding (the mechanism half
// lives in internal/engine/shard). One offload launch is partitioned by the
// NUCA resources its accelerators may touch — L3 home clusters in
// ClusterSpan granules, channel peerings — into islands that share no
// mutable state. Each island's components are assembled against a private
// launchEnv (its own engine, energy meter, NoC/DRAM counter views,
// access-unit stats, metrics registry and profiler) and the islands run on
// a fixed worker pool. Afterwards everything merges back canonically:
//
//   - Integer counters (NoC, DRAM, access-unit, cache slices) are
//     commutative sums, folded in island order.
//   - Energy is float accumulation, which is NOT commutative in the low
//     bits; island meters therefore record (cycle, component)-stamped
//     event logs that ReplayMerge replays into the run meter in the exact
//     interleaving a serial engine would have produced.
//   - Elapsed base cycles are the max over islands, which equals the
//     serial engine's elapsed count because disjoint islands never delay
//     each other.
//
// The net effect: results are bit-identical to a serial run at any shard
// count (the differential, golden, permutation and fuzz tests enforce it).
// Cross-island messaging never arises here — islands are defined by
// claim-disjointness, the degenerate (unbounded-lookahead) case of the
// shard package's conservative time-window protocol; coupled shards are
// exercised through shard.Graph in that package's own tests.

// launchEnv names the run-time resources one island's components are wired
// to during launch assembly. The serial environment aliases the machine's
// own resources; island environments carry private views so concurrent
// islands never share a mutable word.
type launchEnv struct {
	m           *machine
	island      int // index among the launch's islands (0 in the serial env)
	eng         *engine.Engine
	meter       *energy.Meter
	elog        *energy.Log // nil in the serial environment
	mesh        *noc.Mesh
	dmem        *dram.Memory
	hier        *cache.Hierarchy
	austats     *accessunit.Stats
	met         *trace.Metrics
	prof        *profile.Profiler
	clusterLatH *trace.Hist
	nextComp    *int32 // launch-wide component id counter (sharded only)
	// clusterFetch is the environment's cache-path fetcher, built on
	// first use (see fetcherFor).
	clusterFetch accessunit.Fetcher
}

// newIslandEnv builds one island's private environment: a fresh engine, a
// logging meter (every Add is recorded as a stamped event, never
// accumulated), private NoC/DRAM counter views, and — when the run has
// them — a private metrics registry and profiler to merge back later.
func (m *machine) newIslandEnv(nextComp *int32) *launchEnv {
	meter := energy.NewMeter(m.meter.Table)
	elog := &energy.Log{}
	if n := len(m.logFree); n > 0 {
		elog = m.logFree[n-1]
		m.logFree = m.logFree[:n-1]
	}
	meter.StartLog(elog)
	mesh := noc.New(noc.DefaultConfig(), meter)
	dmem := dram.NewMemory(dram.DefaultConfig(), meter)
	env := &launchEnv{
		m: m, eng: m.newEngine(), meter: meter, elog: elog, mesh: mesh,
		dmem: dmem, hier: m.hier.ShardView(mesh, dmem),
		austats: &accessunit.Stats{}, nextComp: nextComp,
	}
	if m.met != nil {
		env.met = trace.NewMetrics()
	}
	env.clusterLatH = env.met.Histogram("cache/cluster_access_lat")
	if m.prof != nil {
		env.prof = profile.New()
		mesh.EnableLinkProfile()
		dmem.EnableChannelProfile(profileDRAMChannels)
	}
	return env
}

// add registers a component with the environment's engine. On an island the
// component is wrapped so every energy Add during its Step is stamped with
// (base cycle, launch-wide registration id) — the key ReplayMerge later
// sorts by to reproduce the serial accumulation order.
func (env *launchEnv) add(c engine.Component, ghz int) {
	if env.elog == nil {
		env.eng.Add(c, ghz)
		return
	}
	s := &stamped{c: c, comp: *env.nextComp, log: env.elog}
	*env.nextComp++
	if hnt, ok := c.(engine.Hinter); ok {
		s.hint = hnt
	}
	env.eng.Add(s, ghz)
}

// stamped wraps an island's component to keep the island energy log's
// (cycle, component) stamp current across the wrapped Step. It always
// implements Hinter: forwarding a missing hint as claim 0 ("poll me") is
// exactly what the engine does for a hint-less component, so scheduling is
// unchanged.
type stamped struct {
	c    engine.Component
	hint engine.Hinter // nil when c does not hint
	comp int32
	log  *energy.Log
}

func (s *stamped) Step(now int64) bool {
	s.log.Cycle, s.log.Comp = now, s.comp
	return s.c.Step(now)
}

func (s *stamped) Done() bool { return s.c.Done() }

func (s *stamped) NextEvent(now int64) int64 {
	if s.hint == nil {
		return 0
	}
	return s.hint.NextEvent(now)
}

// planShards partitions a launch's accelerators into islands by the
// resources each may touch during the engine run. Claims are conservative:
//
//   - On-chip accesses claim the home-cluster granules of their evaluated
//     address window exclusively (cache state — tags, LRU, counters —
//     mutates on reads too), padded by a cache line on both ends and by
//     the combining window, which bounds how far a combined fill FSM
//     reads past an individual accessor's window.
//   - All accesses additionally claim the data bytes they touch in 4 KiB
//     pages (the slab's object alignment, so two objects never share a
//     page): reads share, writes are exclusive. This is what lets
//     off-chip (PIM) accelerators reading a common object still split —
//     they touch no cache state, only immutable bytes and their island's
//     private DRAM counters.
//   - Prefill objects and any micro-program op naming an object claim the
//     object's whole range as written — random ports may touch any
//     element.
//
// Channel endpoints claim nothing: the split link halves interact only
// through latency-stamped wires, which the windowed coordinator carries
// across islands. Accelerators sharing any claimed token land in one
// island. The second return value lists each island's claimed clusters,
// whose L3 slice meters the sharded run temporarily redirects.
func (h *host) planShards(rts []*accelRT) (islands [][]int, clusters [][]int) {
	m := h.m
	p := shard.NewPartition(len(rts))
	span := m.hier.ClusterSpan()
	nclusters := m.hier.Clusters()
	unitClusters := make([]map[int]bool, len(rts))
	for i := range unitClusters {
		unitClusters[i] = map[int]bool{}
	}
	claimClusters := func(u int, lo, hi int64) {
		lo -= 64
		hi += 64
		if lo < 0 {
			lo = 0
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi-lo >= span*int64(nclusters) {
			for c := 0; c < nclusters; c++ {
				p.Claim(u, clusterToken(c))
				unitClusters[u][c] = true
			}
			return
		}
		for a := lo - lo%span; a < hi; a += span {
			c := m.hier.HomeCluster(a)
			p.Claim(u, clusterToken(c))
			unitClusters[u][c] = true
		}
	}
	const page = int64(4096)
	claimPages := func(u int, lo, hi int64, write bool) {
		if lo < 0 {
			lo = 0
		}
		if hi <= lo {
			hi = lo + 1
		}
		for a := lo - lo%page; a < hi; a += page {
			if write {
				p.Claim(u, pageToken(a/page))
			} else {
				p.ClaimRead(u, pageToken(a/page))
			}
		}
	}
	claimData := func(u int, rt *accelRT, lo, hi int64, write bool) {
		if !rt.offChip {
			claimClusters(u, lo, hi)
		}
		claimPages(u, lo, hi, write)
	}
	claimObj := func(u int, rt *accelRT, obj string, write bool) {
		if r, ok := m.slab.Lookup(obj); ok {
			claimData(u, rt, r.Base, r.End(), write)
		}
		// Unallocated objects fail the launch during wiring, before any
		// island engine runs; no claim needed.
	}
	for i, rt := range rts {
		for _, acc := range rt.def.Accesses {
			switch acc.Kind {
			case core.StreamIn, core.StreamOut:
				r, ok := m.slab.Lookup(acc.Obj)
				if !ok {
					continue
				}
				ev := rt.streams[acc.ID]
				eb := int64(acc.ElemBytes)
				first := r.Base + ev.Start*eb
				last := first
				if ev.Length > 1 {
					last = first + (ev.Length-1)*ev.Stride*eb
				}
				lo, hi := first, last
				if hi < lo {
					lo, hi = hi, lo
				}
				// Clamp like clusterOfElem, then pad by the combining
				// window: a combined fill FSM's union window extends at
				// most CombineWindow elements past any one accessor's.
				if lo < r.Base {
					lo = r.Base
				}
				if hi >= r.End() {
					hi = r.End() - 1
				}
				pad := int64(0)
				if m.cfg.Combining {
					st := ev.Stride
					if st < 0 {
						st = -st
					}
					pad = m.cfg.CombineWindow * st * eb
				}
				claimData(i, rt, lo-pad, hi+eb+pad, acc.Kind == core.StreamOut)
			}
		}
		for _, obj := range rt.def.Prefill {
			claimObj(i, rt, obj, true)
		}
		for _, op := range rt.def.Program {
			if op.Obj != "" {
				claimObj(i, rt, op.Obj, true)
			}
		}
	}
	islands = p.Islands()
	clusters = make([][]int, len(islands))
	for k, members := range islands {
		set := map[int]bool{}
		for _, u := range members {
			for c := range unitClusters[u] {
				set[c] = true
			}
		}
		for c := 0; c < nclusters; c++ {
			if set[c] {
				clusters[k] = append(clusters[k], c)
			}
		}
	}
	return islands, clusters
}

// clusterToken is the partition token for one L3 home cluster.
func clusterToken(c int) string {
	return "c:" + strconv.Itoa(c)
}

// pageToken is the partition token for one 4 KiB page of data bytes.
func pageToken(p int64) string {
	return "p:" + strconv.FormatInt(p, 10)
}

// wireInbox is the receiving end of a cross-island link wire: the window
// coordinator delivers messages into it at barriers (conservatively early
// — the link half waits for Msg.At), and the island's link half drains it
// single-threaded during its windows.
type wireInbox struct {
	accessunit.LocalWire
}

// push adapts shard.Channel's Deliver callback.
func (w *wireInbox) push(m shard.Msg) {
	w.Send(accessunit.LinkMsg{At: m.At, Kind: m.Kind, Val: m.Val})
}

// chanSend is the sending end of a cross-island link wire, forwarding the
// link half's stamped messages into a shard channel for barrier delivery.
type chanSend struct {
	ch *shard.Channel
}

// Send implements accessunit.WireSend.
func (s chanSend) Send(m accessunit.LinkMsg) { s.ch.SendAt(m.At, m.Kind, m.Val) }

// crossLink wires a producer→consumer channel whose endpoints live on
// different islands: the Tx half joins the producer's engine, the Rx half
// the consumer's, and the two shard channels (elements forward, credits
// back) carry their messages across window barriers. The channel latency
// bounds — the windowing lookahead — are the minimum NoC traversal between
// the endpoint nodes, under which no stamped message can ever fall.
func crossLink(penv, cenv *launchEnv, src, dst *accessunit.Buffer, srcNode, dstNode, elemBytes int) (tx *accessunit.LinkTx, rx *accessunit.LinkRx, chans []*shard.Channel) {
	m := penv.m
	fwd := &shard.Channel{Latency: int64(m.mesh.MinLatency(srcNode, dstNode)), To: cenv.island}
	back := &shard.Channel{Latency: int64(m.mesh.MinLatency(dstNode, srcNode)), To: penv.island}
	fwdIn, backIn := &wireInbox{}, &wireInbox{}
	fwd.Deliver = fwdIn.push
	back.Deliver = backIn.push
	tx = accessunit.NewLinkTx(src, penv.mesh, srcNode, dstNode, elemBytes, dst.Cap(), chanSend{fwd}, backIn, penv.austats)
	rx = accessunit.NewLinkRx(dst, cenv.mesh, srcNode, dstNode, fwdIn, chanSend{back})
	return tx, rx, []*shard.Channel{fwd, back}
}

// shardJitter, when set by a test, is passed to the shard runner to perturb
// goroutine scheduling: the permutation tests prove merged results do not
// depend on completion order.
var shardJitter func(worker, island int)

// shardObserver, when set by a test, is called once per launch that takes
// the sharded path with the number of islands it split into. Tests use it
// to assert that sharding actually engaged (a run that silently fell back
// to serial would make the bit-identity sweeps vacuous).
var shardObserver func(islands int)

// runShardEngines executes one launch's island engines under the windowed
// coordinator and merges every observable back into the machine in
// canonical order. The L3 slices each island claimed have their energy
// redirected to the island's recording meter for the duration (tag/LRU/
// counter state stays in place — claims guarantee exclusive access, so
// those mutate race-free and end up exactly as a serial run leaves them).
// Cross-island links exchange messages through the Graph's channels at
// window barriers. Returns the launch's elapsed base cycles: the maximum
// over islands, which is the serial engine's count.
func (h *host) runShardEngines(envs []*launchEnv, clusters [][]int, chans []*shard.Channel) (int64, error) {
	m := h.m
	for k, env := range envs {
		for _, c := range clusters[k] {
			m.hier.L3Slice(c).SetMeter(env.meter)
		}
	}
	defer func() {
		for _, cl := range clusters {
			for _, c := range cl {
				m.hier.L3Slice(c).SetMeter(m.meter)
			}
		}
	}()
	g := &shard.Graph{Workers: m.cfg.Shards, Jitter: shardJitter, Stats: m.cfg.ShardStats}
	for _, env := range envs {
		g.AddShard(env.eng)
	}
	for _, c := range chans {
		g.AddChannel(c)
	}
	base, err := g.Run(m.cfg.MaxEngine)
	if err != nil {
		return 0, err
	}
	logs := make([]*energy.Log, len(envs))
	for k, env := range envs {
		logs[k] = env.elog
	}
	m.meter.ReplayMerge(logs)
	for _, l := range logs {
		l.Reset()
		m.logFree = append(m.logFree, l)
	}
	for _, env := range envs {
		m.mesh.AddCounters(env.mesh)
		m.dmem.AddCounters(env.dmem)
		m.austats.DABytes += env.austats.DABytes
		m.austats.AABytes += env.austats.AABytes
		m.austats.IntraBytes += env.austats.IntraBytes
		if m.met != nil {
			m.met.Merge(env.met)
		}
		if m.prof != nil {
			m.prof.Merge(env.prof)
		}
	}
	return base, nil
}
