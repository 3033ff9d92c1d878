// distda-inspect dumps the compiler's artifacts for a workload: the DFG of
// each offloadable region (optionally as Graphviz dot), the partitioned
// accelerator definitions with their access declarations and interface
// mechanisms, and the disassembled micro-programs.
//
// Usage:
//
//	distda-inspect -w seidel-2d
//	distda-inspect -w spmv -mono -dot
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"distda/internal/cliutil"
	"distda/internal/compiler"
	"distda/internal/ir"
)

func main() {
	name := flag.String("w", "", "workload name")
	mono := flag.Bool("mono", false, "compile in monolithic (Mono-CA/DA) mode")
	dot := flag.Bool("dot", false, "emit the region DFGs as Graphviz dot")
	showSrc := flag.Bool("src", false, "print the kernel source before the compiler artifacts")
	profileKeys := flag.Bool("profile-keys", false, "print the folded-stack key space (kernel;region keys and per-accel component labels) a profiled run would emit, then exit")
	scaleName := flag.String("scale", "bench", "input scale: test, bench, paper")
	httpAddr := flag.String("http", "", "serve live introspection (expvar, pprof) on this address while inspecting, e.g. localhost:6060")
	flag.Parse()
	if *name == "" {
		flag.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	if *httpAddr != "" {
		intro, err := cliutil.ServeIntrospection(*httpAddr, nil)
		if err != nil {
			fatal(err)
		}
		// Graceful stop on the normal exit path; error paths os.Exit and
		// tear the listener down with the process.
		defer intro.Shutdown(context.Background())
		fmt.Fprintf(os.Stderr, "distda-inspect: introspection on http://%s (/debug/vars, /debug/pprof/)\n", intro.Addr())
	}
	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	w, err := cliutil.LookupWorkload(*name, scale)
	if err != nil {
		fatal(err)
	}
	mode := compiler.ModeDist
	if *mono {
		mode = compiler.ModeMono
	}
	c, err := compiler.Compile(w.Kernel, compiler.Options{Mode: mode})
	if err != nil {
		fatal(err)
	}
	if *profileKeys {
		// Static view of the folded-stack key space: the profiler keys
		// execution by kernel;region;component (see internal/profile), and
		// the component labels for offloaded regions come from the
		// partitioned accelerator IDs (printed as core:<id> here; CGRA
		// substrates label the same IDs fabric:<id>). This prints the keys
		// a profiled run of this kernel would emit, without simulating
		// anything.
		for _, info := range c.Infos {
			r := info.Region
			if !info.Offloaded() {
				fmt.Printf("%s;%s (not offloaded: %s)\n", w.Kernel.Name, r.Name, info.Why)
				continue
			}
			fmt.Printf("%s;%s;[dispatch]\n", w.Kernel.Name, r.Name)
			fmt.Printf("%s;%s;[queue]\n", w.Kernel.Name, r.Name)
			for _, a := range r.Accels {
				fmt.Printf("%s;%s;core:%d\n", w.Kernel.Name, r.Name, a.ID)
			}
			fmt.Printf("%s;%s;[writeback]\n", w.Kernel.Name, r.Name)
		}
		return
	}
	if *showSrc {
		fmt.Println(ir.Format(w.Kernel))
	}
	fmt.Printf("kernel %s: %d innermost regions\n\n", w.Name, len(c.Regions))
	for i, info := range c.Infos {
		r := info.Region
		fmt.Printf("--- region %d (%s): %s", i, r.Name, r.Class)
		if r.FoldedEpilogue {
			fmt.Printf(", epilogue folded")
		}
		fmt.Println()
		if !info.Offloaded() {
			fmt.Printf("    not offloaded: %s\n\n", info.Why)
			continue
		}
		wdt, hgt, _ := info.Graph.Dims()
		fmt.Printf("    DFG: %d nodes (%dx%d), %d micro-ops (%d B)\n",
			len(info.Graph.Nodes), wdt, hgt, info.Insts, info.Insts*8)
		if *dot {
			fmt.Println(info.Graph.Dot(r.Name))
		}
		for _, a := range r.Accels {
			fmt.Printf("    accel %d (%s): objects %v, anchor %q, place %s, trips %s\n",
				a.ID, a.Name, a.Objects, a.AnchorObj, a.Place, exprStr(a.Trip.Count))
			for _, acc := range a.Accesses {
				switch acc.Kind {
				case 0, 1: // streams
					fmt.Printf("      %%a%d %-10s %s start=%s stride=%s len=%s\n",
						acc.ID, acc.Kind, acc.Obj, exprStr(acc.Start), exprStr(acc.Stride), exprStr(acc.Length))
				default:
					fmt.Printf("      %%a%d %-10s peer=accel%d.%%a%d\n", acc.ID, acc.Kind, acc.Peer.Accel, acc.Peer.Access)
				}
			}
			for _, sb := range a.ScalarInit {
				fmt.Printf("      cp_set_rf r%d <- %s\n", sb.Reg, exprStr(sb.Expr))
			}
			for _, sb := range a.ScalarOut {
				fmt.Printf("      cp_load_rf %s <- r%d\n", sb.Name, sb.Reg)
			}
			fmt.Print(indent(a.Program.String(), "      "))
		}
		fmt.Println()
	}
}

func exprStr(e ir.Expr) string {
	if e == nil {
		return "-"
	}
	return e.String()
}

func indent(s, pad string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += pad + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += pad + s[start:] + "\n"
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distda-inspect:", err)
	os.Exit(cliutil.ExitError)
}
