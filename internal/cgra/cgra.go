// Package cgra models the statically mapped coarse-grained reconfigurable
// fabric of the Dist-DA-F / Mono-DA-F configurations. The mapper performs
// modulo scheduling: the initiation interval is the larger of the resource
// minimum (ops per functional-unit class over provisioned PEs) and the
// recurrence minimum (the longest loop-carried dependence chain), matching
// the way the paper provisions a 5x5 tile per L3 cluster (§VI-E).
package cgra

import (
	"fmt"
	"math/bits"

	"distda/internal/ir"
	"distda/internal/microcode"
)

// GridConfig describes a fabric tile's provisioned resources.
type GridConfig struct {
	Name       string
	IntPEs     int
	ComplexPEs int
	FloatPEs   int
	MemPorts   int // consume/produce/random ports serviceable per cycle
}

// Grid5x5 is the per-cluster Dist-DA-F tile: fifteen integer, four complex
// and four floating-point ALUs plus buffer ports (§VI-E).
func Grid5x5() GridConfig {
	return GridConfig{Name: "5x5", IntPEs: 15, ComplexPEs: 4, FloatPEs: 4, MemPorts: 4}
}

// Grid8x8 is the Mono-DA-F tile supporting larger monolithic offloads.
func Grid8x8() GridConfig {
	return GridConfig{Name: "8x8", IntPEs: 40, ComplexPEs: 12, FloatPEs: 12, MemPorts: 8}
}

// Mapping is the result of modulo-scheduling a micro-program onto a grid.
type Mapping struct {
	II    int // initiation interval in fabric cycles
	Depth int // pipeline depth (iteration latency) in fabric cycles
	Ops   int // mapped operations
	// MemSerial marks a loop-carried dependence through a random-access
	// load (pointer chasing): successive iterations cannot overlap because
	// the next address needs the previous load's data.
	MemSerial bool
}

// Map schedules prog onto g. Predicated consumes/produces are rejected: the
// compiler keeps channel operations unconditional so input counts per
// iteration are static.
func Map(prog microcode.Program, g GridConfig) (Mapping, error) {
	if len(prog) == 0 {
		return Mapping{}, fmt.Errorf("cgra: empty program")
	}
	if g.IntPEs <= 0 || g.ComplexPEs <= 0 || g.FloatPEs <= 0 || g.MemPorts <= 0 {
		return Mapping{}, fmt.Errorf("cgra: grid %q has non-positive resources", g.Name)
	}
	for i := range prog {
		if op := &prog[i]; (op.Code == microcode.Consume || op.Code == microcode.Produce) && op.Pred >= 0 {
			return Mapping{}, fmt.Errorf("cgra: op %d: predicated channel operation not mappable", i)
		}
	}
	n := peOps(prog)
	resMII := maxInt(
		ceilDiv(n[ir.ClassInt], g.IntPEs),
		ceilDiv(n[ir.ClassComplex], g.ComplexPEs),
		ceilDiv(n[ir.ClassFloat], g.FloatPEs),
		ceilDiv(n[peMem], g.MemPorts),
		1,
	)
	depth, recMII := analyzeDeps(prog)
	ii := maxInt(resMII, recMII)
	return Mapping{II: ii, Depth: depth, Ops: len(prog), MemSerial: memSerialRecurrence(prog)}, nil
}

// peMem indexes the memory ports in peOps' counts, after the three ALU
// classes (ir.OpClass).
const peMem = 3

// peNames names peOps' PE classes.
var peNames = [4]string{"int", "complex", "float", "mem"}

// peOps counts prog's ops by the PE class they occupy: the integer,
// complex and float ALUs, and the memory ports (consume, produce and
// random access).
func peOps(prog microcode.Program) (n [4]int) {
	for i := range prog {
		switch op := &prog[i]; op.Code {
		case microcode.Consume, microcode.Produce, microcode.LoadObj, microcode.StoreObj:
			n[peMem]++
		default:
			n[op.Class()]++
		}
	}
	return n
}

// dataflow builds one iteration's register dataflow: preds[i] lists the
// ops whose results op i reads, lastWriter[r] is the last op writing
// register r, and carried[r] lists the ops reading r before any write (the
// value from the previous iteration).
func dataflow(prog microcode.Program) (preds [][]int, lastWriter map[int]int, carried map[int][]int) {
	preds = make([][]int, len(prog))
	lastWriter, carried = map[int]int{}, map[int][]int{}
	for i := range prog {
		op := &prog[i]
		for rs := op.Reads(); rs != 0; rs &= rs - 1 {
			r := bits.TrailingZeros64(rs)
			if w, ok := lastWriter[r]; ok {
				preds[i] = append(preds[i], w)
			} else {
				carried[r] = append(carried[r], i)
			}
		}
		if d := op.Writes(); d >= 0 {
			lastWriter[d] = i
		}
	}
	return preds, lastWriter, carried
}

// memSerialRecurrence reports whether a loop-carried register dependence
// passes through a LoadObj: the recurrence latency then includes the memory
// access and iterations serialize.
func memSerialRecurrence(prog microcode.Program) bool {
	n := len(prog)
	// reach[i][j]: op j is dataflow-reachable from op i within one
	// iteration (following register defs).
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	preds, lastWriter, carried := dataflow(prog)
	for i := 0; i < n; i++ {
		for _, p := range preds[i] {
			reach[p][i] = true
			for q := 0; q < n; q++ {
				if reach[q][p] {
					reach[q][i] = true
				}
			}
		}
	}
	onPath := func(from, via, to int) bool {
		a := from == via || reach[from][via]
		b := via == to || reach[via][to]
		return a && b
	}
	for r, readers := range carried {
		w, written := lastWriter[r]
		if !written {
			continue
		}
		for _, rd := range readers {
			for i, op := range prog {
				if op.Code == microcode.LoadObj && onPath(rd, i, w) {
					return true
				}
			}
		}
	}
	return false
}

// analyzeDeps returns the register dataflow DAG's critical path length and
// its longest loop-carried recurrence chain. Each op takes one fabric
// cycle.
func analyzeDeps(prog microcode.Program) (depth, recMII int) {
	n := len(prog)
	preds, lastWriter, carried := dataflow(prog)
	// Longest path to each node.
	level := make([]int, n)
	for i := 0; i < n; i++ {
		level[i] = 1
		for _, p := range preds[i] {
			if level[p]+1 > level[i] {
				level[i] = level[p] + 1
			}
		}
		if level[i] > depth {
			depth = level[i]
		}
	}
	// Recurrence: for each register read-before-write and later written, the
	// chain from its first carried reader to its (final) writer bounds II.
	recMII = 1
	for r, readers := range carried {
		w, written := lastWriter[r]
		if !written {
			continue
		}
		for _, rd := range readers {
			if rd <= w {
				// Chain length in ops from the reader to the writer along
				// the DAG; level difference is a sound upper-path estimate.
				chain := level[w] - level[rd] + 1
				if chain > recMII {
					recMII = chain
				}
			}
		}
	}
	return depth, recMII
}

func ceilDiv(a, b int) int {
	if a == 0 {
		return 0
	}
	return (a + b - 1) / b
}

func maxInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
