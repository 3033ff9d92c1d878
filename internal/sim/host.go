package sim

import (
	"fmt"

	"distda/internal/compiler"
	"distda/internal/energy"
	"distda/internal/ir"
	"distda/internal/microcode"
)

// Host timing model parameters (Table III: 5-way Ice-Lake-class OoO).
const (
	hostWidth = 4.0 // sustainable issue width
	hostMLP   = 6.0 // overlapped outstanding misses (MSHR-limited)
	l1Latency = 2.0
)

// host is the OoO core's timing model. The kernel runs on the bytecode VM
// as a host program (compiler.Compiled.Host, or the plain program on the
// OoO baseline); the model prices the events the VM reports through its
// hooks (each op, load, store, branch and loop iteration) and launches
// every offload the program reaches.
type host struct {
	m        *machine
	compiled *compiler.Compiled // nil: pure host run
	par      []parSection       // open parallel loops, innermost last
}

// parSection is the §VI-D account of one parallel-loop instance: its
// iterations are chunked across the configuration's software threads.
// Chunks execute sequentially (iterations are independent, so functional
// state is preserved) while the cycle account keeps only the slowest
// chunk plus a barrier: concurrent threads overlap in time.
type parSection struct {
	f                          *ir.For
	chunk                      int64 // iterations per thread; 0 when the loop runs none
	k                          int64 // iterations begun
	hBefore, maxDelta, sumHost float64
}

type hostError struct{ err error }

// failf aborts the run with a host error.
func (m *machine) failf(format string, args ...any) {
	panic(hostError{fmt.Errorf("sim: host: "+format, args...)})
}

// checkCancel aborts the run (with an error wrapping ErrCanceled) when the
// config's Cancel channel has closed. It is called at loop boundaries — the
// cost is a nil check on the common uncancellable path.
func (h *host) checkCancel() {
	if c := h.m.cfg.Cancel; c != nil {
		select {
		case <-c:
			panic(hostError{fmt.Errorf("sim: host: %w", ErrCanceled)})
		default:
		}
	}
}

// run executes prog, the host program of the machine's kernel, to
// completion.
func (h *host) run(prog *ir.Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			he, ok := r.(hostError)
			if !ok {
				panic(r)
			}
			err = he.err
		}
	}()
	hooks := ir.Hooks{
		OnOp:       h.instr,
		OnLoad:     h.load,
		OnStore:    h.store,
		OnBranch:   func() { h.instr(ir.ClassInt) },
		OnLoopIter: h.iter,
		OnLaunch:   h.launchAt,
	}
	if h.m.cfg.Threads > 1 {
		hooks.OnParallelEnter, hooks.OnParallelExit = h.parEnter, h.parExit
	}
	if _, err := prog.Run(h.m.params, h.m.data, &hooks); err != nil {
		return fmt.Errorf("sim: host: %w", err)
	}
	return nil
}

// instr accounts one host instruction of the given class.
func (h *host) instr(class ir.OpClass) {
	h.m.hostInstr++
	h.m.slotCycles += 1 / hostWidth
	t := &h.m.meter.Table // by pointer: the table is ~17 words, copied per instruction otherwise
	h.m.meter.Add(energy.CatHost, microcode.EnergyPJ(t, t.OoOInstrPJ, class))
}

// load times a host load of object obj (kernel order) with the
// dependence-aware stall model; dep is the index's taint. Touching an
// object written by an in-flight offload first joins it (the
// software-coherence ordering of §IV-D).
func (h *host) load(obj, idx int, dep ir.Taint) {
	o := &h.m.objs[obj]
	h.m.joinIfWritten(o.name)
	h.m.hostLoads++
	h.instr(ir.ClassInt)
	lat := float64(h.m.hier.HostAccess(o.base+int64(idx)*o.elemBytes, false))
	h.m.hostLatH.Observe(lat)
	stall := lat - l1Latency
	if stall > 0 {
		switch dep {
		case ir.TaintCarried:
			h.m.memCycles += stall // serialized dependence chain
		case ir.TaintFresh:
			h.m.memCycles += stall / 2 // short chain, partial overlap
		default:
			h.m.memCycles += stall / hostMLP // independent, MLP-overlapped
		}
	}
}

// store times a host store to object obj: posted, so traffic and energy
// but no stall.
func (h *host) store(obj, idx int) {
	o := &h.m.objs[obj]
	h.m.joinIfWritten(o.name)
	h.m.hostStores++
	h.instr(ir.ClassInt)
	h.m.hier.HostAccess(o.base+int64(idx)*o.elemBytes, true)
}

// iter accounts one loop iteration's control: compare + increment.
func (h *host) iter(f *ir.For) {
	h.checkCancel()
	if n := len(h.par); n > 0 && h.par[n-1].f == f {
		s := &h.par[n-1]
		if s.k%s.chunk == 0 { // the next thread's chunk starts
			if s.k > 0 {
				h.endChunk(s)
			}
			s.hBefore = h.m.hostTimeline()
			h.m.accelFreeAt = s.hBefore // each thread drives its own accelerators
		}
		s.k++
	}
	h.instr(ir.ClassInt)
	h.instr(ir.ClassInt)
}

// launchAt launches the offload region of loop f in its place.
func (h *host) launchAt(f *ir.For, l ir.Launch) {
	h.checkCancel()
	h.launch(h.compiled.ByLoop[f], l)
}

// parEnter opens a parallel loop that runs trips iterations, chunked
// over ceil(trips/threads) iterations per thread.
func (h *host) parEnter(f *ir.For, trips int64) {
	s := parSection{f: f}
	if trips > 0 {
		threads := int64(h.m.cfg.Threads)
		s.chunk = (trips + threads - 1) / threads
		h.m.syncAccel() // barrier entering the parallel section
	}
	h.par = append(h.par, s)
}

// parExit closes the innermost parallel loop, keeping only the slowest
// thread's time plus a barrier join.
func (h *host) parExit(*ir.For) {
	s := &h.par[len(h.par)-1]
	if s.k > 0 {
		h.endChunk(s)
		h.m.cycleAdjust -= int64(s.sumHost - s.maxDelta)
		h.m.cycleAdjust += 200
		h.m.accelFreeAt = h.m.hostTimeline() // all offloads joined at the barrier
	}
	h.par = h.par[:len(h.par)-1]
}

// endChunk closes the running thread's chunk of s.
func (h *host) endChunk(s *parSection) {
	hostDelta := h.m.hostTimeline() - s.hBefore
	accelDelta := h.m.accelFreeAt - s.hBefore
	d := hostDelta
	if accelDelta > d {
		d = accelDelta
	}
	if d > s.maxDelta {
		s.maxDelta = d
	}
	s.sumHost += hostDelta
}
