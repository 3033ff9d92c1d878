package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"distda/internal/energy"
)

func TestHopsManhattan(t *testing.T) {
	m := New(DefaultConfig(), nil)
	// 4x2 mesh: node 0 = (0,0), node 7 = (3,1).
	if h := m.Hops(0, 7); h != 4 {
		t.Fatalf("Hops(0,7) = %d, want 4", h)
	}
	if h := m.Hops(3, 3); h != 0 {
		t.Fatalf("Hops(3,3) = %d, want 0", h)
	}
	if h := m.Hops(0, 1); h != 1 {
		t.Fatalf("Hops(0,1) = %d, want 1", h)
	}
	if h := m.Hops(1, 5); h != 1 {
		t.Fatalf("Hops(1,5) = %d, want 1", h)
	}
}

func TestHopsSymmetricProperty(t *testing.T) {
	m := New(DefaultConfig(), nil)
	f := func(a, b uint8) bool {
		x, y := int(a)%m.Nodes(), int(b)%m.Nodes()
		return m.Hops(x, y) == m.Hops(y, x) && m.Hops(x, y) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	m := New(DefaultConfig(), nil)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%m.Nodes(), int(b)%m.Nodes(), int(c)%m.Nodes()
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlits(t *testing.T) {
	m := New(DefaultConfig(), nil)
	cases := []struct{ bytes, want int }{{0, 1}, {1, 1}, {16, 1}, {17, 2}, {64, 4}}
	for _, c := range cases {
		if got := m.Flits(c.bytes); got != c.want {
			t.Fatalf("Flits(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestTransferAccounting(t *testing.T) {
	meter := energy.NewMeter(energy.Default32nm())
	m := New(DefaultConfig(), meter)
	lat := m.Transfer(0, 7, 64, AccData)
	// 4 hops x 2 cycles + 3 extra flits of serialization.
	if lat != 11 {
		t.Fatalf("latency = %d, want 11", lat)
	}
	if m.Bytes[AccData] != 64 || m.Messages[AccData] != 1 || m.FlitHops[AccData] != 16 {
		t.Fatalf("accounting = %d/%d/%d", m.Bytes[AccData], m.Messages[AccData], m.FlitHops[AccData])
	}
	if got := meter.Get(energy.CatNoC); got != 16*meter.Table.NoCFlitHopPJ {
		t.Fatalf("energy = %g", got)
	}
	if m.TotalBytes() != 64 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
}

func TestLocalTransferCostsNoEnergy(t *testing.T) {
	meter := energy.NewMeter(energy.Default32nm())
	m := New(DefaultConfig(), meter)
	lat := m.Transfer(3, 3, 64, HostData)
	if lat != 1 {
		t.Fatalf("local latency = %d, want 1", lat)
	}
	if meter.Get(energy.CatNoC) != 0 {
		t.Fatal("local transfer burned NoC energy")
	}
	if m.Bytes[HostData] != 64 {
		t.Fatal("local transfer bytes not counted")
	}
}

func TestTransferPanicsOnBadNode(t *testing.T) {
	m := New(DefaultConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid node")
		}
	}()
	m.Transfer(0, 99, 8, HostCtrl)
}

func TestClassNamesAndBytesByClass(t *testing.T) {
	m := New(DefaultConfig(), nil)
	m.Transfer(0, 1, 8, HostCtrl)
	m.Transfer(0, 1, 32, AccCtrl)
	by := m.BytesByClass()
	if by["ctrl"] != 8 || by["acc_ctrl"] != 32 || by["data"] != 0 || by["acc_data"] != 0 {
		t.Fatalf("BytesByClass = %v", by)
	}
	if len(Classes()) != 4 {
		t.Fatal("Classes() length")
	}
	if HostCtrl.String() != "ctrl" || AccData.String() != "acc_data" {
		t.Fatal("class names")
	}
}

// driveMesh sends a seeded mix of messages of every class between random
// nodes and returns every latency in order.
func driveMesh(m *Mesh, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, m.Transfer(rng.Intn(m.Nodes()), rng.Intn(m.Nodes()), rng.Intn(200), Class(rng.Intn(int(numClasses)))))
	}
	return out
}

// links returns every directed link's flit count, in VisitLinks order.
func links(m *Mesh) [][3]int64 {
	var out [][3]int64
	m.VisitLinks(func(from, to int, flits int64) { out = append(out, [3]int64{int64(from), int64(to), flits}) })
	return out
}

// TestMeshResetMatchesNew: a mesh that carried traffic with link
// profiling on, Reset to another geometry and meter, equals New's mesh
// for them — with link profiling left off, and turned on again — and then
// behaves like it message for message.
func TestMeshResetMatchesNew(t *testing.T) {
	other := Config{Width: 2, Height: 3, FlitBytes: 8, HopCycles: 3}
	for _, profiled := range []bool{false, true} {
		t.Run(fmt.Sprintf("link-profile=%v", profiled), func(t *testing.T) {
			m := New(DefaultConfig(), energy.NewMeter(energy.Default32nm()))
			m.EnableLinkProfile()
			driveMesh(m, 1, 500)
			m.Reset(other, energy.NewMeter(energy.Default32nm()))
			fresh := New(other, energy.NewMeter(energy.Default32nm()))
			if profiled {
				m.EnableLinkProfile()
				fresh.EnableLinkProfile()
			}
			state := func(m *Mesh) Mesh {
				s := *m
				if !s.linkProf {
					s.linkFlits = nil // storage kept for the next EnableLinkProfile, unread
				}
				return s
			}
			if !reflect.DeepEqual(state(m), state(fresh)) {
				t.Fatalf("reset mesh differs from a new one:\nreset %+v\nnew   %+v", state(m), state(fresh))
			}
			if got, want := driveMesh(m, 2, 500), driveMesh(fresh, 2, 500); !reflect.DeepEqual(got, want) {
				t.Fatal("reset mesh's latencies diverge from a new mesh's")
			}
			if !reflect.DeepEqual(state(m), state(fresh)) || !reflect.DeepEqual(links(m), links(fresh)) {
				t.Fatal("reset mesh's counters diverge from a new mesh's after the same messages")
			}
			if profiled != (len(links(m)) > 0) {
				t.Fatalf("link profiling on=%v but %d links reported", profiled, len(links(m)))
			}
		})
	}
}
