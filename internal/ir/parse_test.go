package ir_test

import (
	"strings"
	"testing"

	"distda/internal/ir"
	"distda/internal/workloads"
)

// TestParseRoundTripsAllWorkloads proves the parser accepts exactly
// the dialect ir.Format emits: for every kernel the suite ships (all
// twelve benchmarks at every scale, the case study, and the multithreaded
// variants), parsing the formatted source and re-formatting reproduces the
// bytes. A client can therefore dump any kernel with distda-inspect -src,
// edit it, and submit the result as a custom-kernel job.
func TestParseRoundTripsAllWorkloads(t *testing.T) {
	var kernels []*ir.Kernel
	for _, scale := range []workloads.Scale{workloads.ScaleTest, workloads.ScaleBench} {
		for _, w := range workloads.All(scale) {
			kernels = append(kernels, w.Kernel)
		}
		kernels = append(kernels,
			workloads.SpMV(scale).Kernel,
			workloads.BFSMT(scale).Kernel,
			workloads.PathfinderMT(scale).Kernel)
	}
	for _, k := range kernels {
		src := ir.Format(k)
		parsed, err := ir.Parse(src)
		if err != nil {
			t.Errorf("%s: parse failed: %v\nsource:\n%s", k.Name, err, src)
			continue
		}
		if got := ir.Format(parsed); got != src {
			t.Errorf("%s: round trip diverged\n--- formatted original\n%s\n--- formatted reparse\n%s", k.Name, src, got)
		}
	}
}

func TestParseHandwritten(t *testing.T) {
	src := `kernel saxpy(n, a)
  object x[64] (8B elems)
  object y[64] (8B elems)
  acc = 0
  for i = 0 .. $n step 1 {
    y[i] = (($a mul x[i]) add y[i])
    acc = (%acc add y[i])
    if (i lt 4) {
      y[i] = sel((y[i] gt 0), y[i], neg(y[i]))
    } else {
      y[i] = 0.5
    }
  }
`
	k, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "saxpy" || len(k.Params) != 2 || len(k.Objects) != 2 {
		t.Fatalf("kernel header = %q %v %v", k.Name, k.Params, k.Objects)
	}
	if k.Objects[0].Name != "x" || k.Objects[0].Len != 64 || k.Objects[0].ElemBytes != 8 {
		t.Fatalf("object 0 = %+v", k.Objects[0])
	}
	loop, ok := k.Body[1].(*ir.For)
	if !ok || loop.IV != "i" || loop.Parallel {
		t.Fatalf("body[1] = %#v", k.Body[1])
	}
	// Reformatting and reparsing is stable.
	if reparsed, err := ir.Parse(ir.Format(k)); err != nil {
		t.Fatal(err)
	} else if ir.Format(reparsed) != ir.Format(k) {
		t.Error("handwritten kernel not round-trip stable")
	}
}

func TestParseParfor(t *testing.T) {
	src := "kernel p(n)\n  object a[8] (8B elems)\n  parfor i = 0 .. $n step 1 {\n    a[i] = i\n  }\n"
	k, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if loop := k.Body[0].(*ir.For); !loop.Parallel {
		t.Error("parfor not marked parallel")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", `expected "kernel"`},
		{"not a kernel", "object a[4] (8B elems)", `expected "kernel"`},
		{"unknown op", "kernel k(n)\n  x = (1 bogus 2)\n", "unknown binary operator"},
		{"unclosed block", "kernel k(n)\n  for i = 0 .. $n step 1 {\n    x = 1\n", "unexpected end of input"},
		{"stray brace", "kernel k(n)\n  }\n", "unexpected"},
		{"bad char", "kernel k(n)\n  x = 1 ; y = 2\n", "unexpected character"},
		{"stray dot", "kernel k(n)\n  x = .\n", "stray '.'"},
		{"trailing", "kernel k()\n  x = 1\n) ", "expected statement"},
		// Parses but fails IR validation: the object is undeclared.
		{"validation", "kernel k(n)\n  a[0] = 1\n", "ir: kernel"},
		{"undefined local", "kernel k(n)\n  x = %y\n", "ir: kernel"},
	}
	for _, c := range cases {
		_, err := ir.Parse(c.src)
		if err == nil {
			t.Errorf("%s: parse succeeded, want error containing %q", c.name, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}
