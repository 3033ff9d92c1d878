package ir

import (
	"reflect"
	"testing"
)

// TestParseGenerated checks the Format/Parse round trip as a property over
// the VM fuzz generator's kernels: the reparsed kernel formats to the same
// bytes and runs to the same data, error text and counts.
func TestParseGenerated(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		k, params, mem := genKernel(seed)
		src := Format(k)
		k2, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if got := Format(k2); got != src {
			t.Fatalf("seed %d: Format not a fixed point\n--- original\n%s\n--- reparsed\n%s", seed, src, got)
		}
		if !withinBudget(k, params, mem) {
			continue
		}
		memA, memB := copyMem(mem), copyMem(mem)
		cA, errA := runProgram(k, params, memA)
		cB, errB := runProgram(k2, params, memB)
		if errText(errA) != errText(errB) {
			t.Fatalf("seed %d: error %v, reparsed %v\n%s", seed, errA, errB, src)
		}
		if !memBitsEqual(memA, memB) {
			t.Fatalf("seed %d: data %v, reparsed %v\n%s", seed, memA, memB, src)
		}
		if errA != nil {
			continue
		}
		// ByLoop is keyed by *For, which differs between the two trees.
		if len(cA.ByLoop) != len(cB.ByLoop) {
			t.Fatalf("seed %d: %d loops counted, reparsed %d", seed, len(cA.ByLoop), len(cB.ByLoop))
		}
		cA.ByLoop, cB.ByLoop = nil, nil
		if !reflect.DeepEqual(cA, cB) {
			t.Fatalf("seed %d: counts %+v, reparsed %+v", seed, cA, cB)
		}
	}
}

func runProgram(k *Kernel, params map[string]float64, mem map[string][]float64) (*Counts, error) {
	p, err := NewProgram(k)
	if err != nil {
		return nil, err
	}
	return p.Run(params, mem, nil)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzParse feeds arbitrary text to Parse. It must never panic, and any
// kernel it accepts must reach a fixed point: Format(Parse(Format(k)))
// equals Format(k).
func FuzzParse(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		k, _, _ := genKernel(seed)
		f.Add(Format(k))
	}
	for _, src := range []string{
		"kernel saxpy(n, a)\n  object x[64] (8B elems)\n  object y[64] (8B elems)\n  acc = 0\n" +
			"  for i = 0 .. $n step 1 {\n    y[i] = (($a mul x[i]) add y[i])\n    acc = (%acc add y[i])\n" +
			"    if (i lt 4) {\n      y[i] = sel((y[i] gt 0), y[i], neg(y[i]))\n    } else {\n      y[i] = 0.5\n    }\n  }\n",
		"kernel p(n)\n  object a[8] (8B elems)\n  parfor i = 0 .. $n step 1 {\n    a[i] = i\n  }\n",
		"",
		"object a[4] (8B elems)",
		"kernel k(n)\n  x = (1 bogus 2)\n",
		"kernel k(n)\n  for i = 0 .. $n step 1 {\n    x = 1\n",
		"kernel k(n)\n  }\n",
		"kernel k(n)\n  x = 1 ; y = 2\n",
		"kernel k(n)\n  x = .\n",
		"kernel k()\n  x = 1\n) ",
		"kernel k(n)\n  a[0] = 1\n",
		"kernel k(n)\n  x = %y\n",
		// Format drops the empty else branch; the local named else that
		// follows must not then parse as one.
		"kernel k()\n  object o[2] (8B elems)\n  if 1 {\n    o[0] = 1\n  } else {\n  }\n  else = 2\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			return
		}
		want := Format(k)
		k2, err := Parse(want)
		if err != nil {
			t.Fatalf("reparse failed: %v\n--- input\n%q\n--- formatted\n%s", err, src, want)
		}
		if got := Format(k2); got != want {
			t.Fatalf("Format not a fixed point\n--- first\n%s\n--- second\n%s", want, got)
		}
	})
}
