package ir

import (
	"runtime"
	"strings"
	"testing"
)

func TestFormatKernel(t *testing.T) {
	k := &Kernel{
		Name:    "demo",
		Params:  []string{"N"},
		Objects: []ObjDecl{{Name: "A", Len: 8, ElemBytes: 8}},
		Body: []Stmt{
			Set("s", C(0)),
			ParLoop("i", C(0), P("N"),
				Cond(GtE(Ld("A", V("i")), C(0)),
					[]Stmt{St("A", V("i"), C(1))},
					[]Stmt{St("A", V("i"), C(2))}),
			),
		},
	}
	out := Format(k)
	for _, want := range []string{
		"kernel demo(N)",
		"object A[8] (8B elems)",
		"parfor i = 0 .. $N step 1 {",
		"if (A[i] gt 0) {",
		"} else {",
		"A[i] = 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	// Nesting depth is reflected by indentation.
	if !strings.Contains(out, "      A[i] = 1") {
		t.Fatalf("indentation wrong:\n%s", out)
	}
}

// TestFormatLinearInDepth guards against Format copying a sub-expression
// once per enclosing level: a 10,000-deep chain must allocate a small
// constant multiple of its output, not a multiple of depth.
func TestFormatLinearInDepth(t *testing.T) {
	e := C(1)
	for i := 0; i < 10000; i++ {
		e = AddE(e, C(1))
	}
	k := &Kernel{Name: "deep", Body: []Stmt{Set("x", e)}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := Format(k)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(out)) {
		t.Errorf("Format allocated %d bytes for %d bytes of output (%.0fx)", alloc, len(out), float64(alloc)/float64(len(out)))
	}
}
