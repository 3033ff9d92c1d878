package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"distda/internal/ir"
)

// TestPlanBuffersProperties checks the scheduler invariants over random
// access sets: every access maps to exactly one buffer, buffers never mix
// objects or directions, and combined accessors share object, stride and a
// bounded start distance.
func TestPlanBuffersProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objs := []string{"A", "B", "C"}
	var reused BufferPlan
	f := func(nRaw, windowRaw uint8, combining bool) bool {
		n := 1 + int(nRaw%12)
		window := int64(1 + windowRaw%100)
		def := &AccelDef{ID: 0, Trip: TripSpec{Kind: TripCounted, Count: ir.C(8)}}
		streams := make([]EvaledStream, n)
		for i := 0; i < n; i++ {
			kind := StreamIn
			if rng.Intn(4) == 0 {
				kind = StreamOut
			}
			def.Accesses = append(def.Accesses, AccessDecl{
				ID: i, Kind: kind, Obj: objs[rng.Intn(len(objs))], ElemBytes: 8,
				Start: ir.C(0), Stride: ir.C(1), Length: ir.C(64),
			})
			streams[i] = EvaledStream{
				Start:  int64(rng.Intn(300)),
				Stride: int64(1 + rng.Intn(3)),
				Length: 64,
			}
		}
		plan, err := PlanBuffers(def, streams, window, combining)
		if err != nil {
			return false
		}
		// Re-planning into a plan that served earlier, differently shaped
		// launches must give exactly the fresh plan.
		if err := reused.Plan(def, streams, window, combining); err != nil {
			return false
		}
		if !reflect.DeepEqual(reused.Buffers, plan.Buffers) || !reflect.DeepEqual(reused.ByAccess, plan.ByAccess) {
			return false
		}
		seen := map[int]int{}
		for _, ba := range plan.Buffers {
			if len(ba.Accesses) == 0 {
				return false
			}
			first := def.Accesses[ba.Accesses[0]]
			for _, id := range ba.Accesses {
				if _, dup := seen[id]; dup {
					return false // access in two buffers
				}
				seen[id] = ba.Buf
				acc := def.Accesses[id]
				if acc.Obj != first.Obj || acc.Kind != first.Kind {
					return false // mixed object or direction
				}
				if len(ba.Accesses) > 1 {
					if acc.Kind != StreamIn {
						return false // only read streams combine
					}
					d := streams[id].Start - streams[ba.Accesses[0]].Start
					if d < 0 {
						d = -d
					}
					if d > window || streams[id].Stride != streams[ba.Accesses[0]].Stride {
						return false
					}
					if d%streams[id].Stride != 0 {
						return false
					}
				}
			}
		}
		if len(seen) != n {
			return false // some access unmapped
		}
		for id, buf := range seen {
			if plan.ByAccess[id] != buf {
				return false
			}
		}
		// Without combining, exactly one access per buffer.
		if !combining {
			for _, ba := range plan.Buffers {
				if len(ba.Accesses) != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
