// Streampipe wires the Dist-DA interface by hand, the way Fig. 4 and Fig. 5
// of the paper do: two accelerator definitions in a producer→consumer
// pipeline over a channel, with a fill FSM streaming the input object and a
// drain FSM writing the result back — all driven by the cycle engine.
//
// The pipeline computes out[i] = (in[i] * 2) + 1 with the multiply on one
// accelerator and the add on another.
package main

import (
	"fmt"
	"log"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/backend/all"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/memfake"
	"distda/internal/microcode"
	"distda/internal/noc"
)

func main() {
	const n = 64
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	mem := memfake.New(8, map[string][]float64{"in": in, "out": make([]float64, n)})
	fetch := &memfake.Fetch{Lat: 24} // cluster-local L3 access, base cycles
	stats := &accessunit.Stats{}
	meter := energy.NewMeter(energy.Default32nm())
	mesh := noc.New(noc.DefaultConfig(), meter)

	// Access units: stream-in buffer at cluster 0, channel across the NoC
	// to cluster 3, drain buffer at cluster 3.
	bufIn, _ := accessunit.NewBuffer(32, meter)
	inPort := accessunit.NewInPort(bufIn, 0)
	fill, err := accessunit.NewStreamIn(bufIn, mem, fetch, 0, "in", 0, 1, n, stats, meter)
	if err != nil {
		log.Fatal(err)
	}
	chSrc, _ := accessunit.NewBuffer(16, meter)
	chDst, _ := accessunit.NewBuffer(16, meter)
	chPort := accessunit.NewInPort(chDst, 0)
	linkTx, linkRx := accessunit.NewLocalLink(chSrc, chDst, mesh, 0, 3, 8, stats)
	bufOut, _ := accessunit.NewBuffer(32, meter)
	drain, err := accessunit.NewStreamOut(bufOut, mem, fetch, 3, "out", 0, 1, stats, meter)
	if err != nil {
		log.Fatal(err)
	}

	op := func(c microcode.Code) microcode.Op { return microcode.NewOp(c) }

	// Accelerator 0 at the data: v*2, forwarded over the channel.
	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	mul := op(microcode.ALUI)
	mul.Dst, mul.A, mul.Bin, mul.Imm = 2, 1, ir.Mul, 2
	send := op(microcode.Produce)
	send.A, send.Access = 2, 1
	def0 := &core.AccelDef{
		ID: 0, Name: "scale", Objects: []string{"in"}, AnchorObj: "in",
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "in", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(n)},
			{ID: 1, Kind: core.ChanOut, ElemBytes: 8, Peer: core.PeerRef{Accel: 1, Access: 0}},
		},
		Program: microcode.Program{cons, mul, send},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(n)},
	}

	// Accelerator 1 at the output object: +1, drained to memory. Its
	// orchestrator runs while the channel delivers values (cp_consume
	// end-of-stream terminates it).
	recv := op(microcode.Consume)
	recv.Dst, recv.Access = 1, 0
	inc := op(microcode.ALUI)
	inc.Dst, inc.A, inc.Bin, inc.Imm = 2, 1, ir.Add, 1
	put := op(microcode.Produce)
	put.A, put.Access = 2, 1
	def1 := &core.AccelDef{
		ID: 1, Name: "bias", Objects: []string{"out"}, AnchorObj: "out",
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.ChanIn, ElemBytes: 8, Peer: core.PeerRef{Accel: 0, Access: 1}},
			{ID: 1, Kind: core.StreamOut, Obj: "out", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(n)},
		},
		Program: microcode.Program{recv, inc, put},
		Trip:    core.TripSpec{Kind: core.TripWhileInput, InputAccess: 0},
	}
	region := &core.Region{Name: "pipe", Class: core.ClassParallelizable, Accels: []*core.AccelDef{def0, def1}}
	if err := region.Validate(); err != nil {
		log.Fatal(err)
	}

	// Engines come from the backend table — the same pluggable interface
	// the simulator assembly uses.
	be, ok := all.Lookup("iocore")
	if !ok {
		log.Fatal("no iocore backend")
	}
	rp := accessunit.NewRandomPort(mem, fetch, 0, stats, meter)
	core0, err := be.NewEngine(backend.LaunchSpec{
		Def: def0, Trips: n,
		In:     []*accessunit.InPort{inPort, nil},
		Out:    []*accessunit.OutPort{nil, {Buf: chSrc}},
		Random: rp, GHz: 2, Width: 1, Meter: meter,
	})
	if err != nil {
		log.Fatal(err)
	}
	core1, err := be.NewEngine(backend.LaunchSpec{
		Def: def1, Trips: -1,
		In:     []*accessunit.InPort{chPort, nil},
		Out:    []*accessunit.OutPort{nil, {Buf: bufOut}},
		Random: rp, GHz: 2, Width: 1, Meter: meter,
	})
	if err != nil {
		log.Fatal(err)
	}

	eng := engine.New()
	eng.Add(fill, 2)
	eng.Add(core0, 2)
	eng.Add(linkTx, 2)
	eng.Add(linkRx, 2)
	eng.Add(core1, 2)
	eng.Add(drain, 2)
	baseCycles, err := eng.Run(1 << 24)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < n; i++ {
		want := in[i]*2 + 1
		if mem.Objs["out"][i] != want {
			log.Fatalf("out[%d] = %g, want %g", i, mem.Objs["out"][i], want)
		}
	}
	fmt.Printf("pipeline of %d elements completed in %d base cycles (%d ns)\n",
		n, baseCycles, baseCycles/engine.BaseGHz)
	fmt.Printf("traffic: D-A %d B, A-A %d B over the NoC (%d acc_data bytes)\n",
		stats.DABytes, stats.AABytes, mesh.Bytes[noc.AccData])
	fmt.Printf("energy: %.1f pJ total\n", meter.TotalPJ())
	fmt.Printf("micro-ops: scale=%d bias=%d (decoupled, overlapped)\n", core0.Ops(), core1.Ops())
}
