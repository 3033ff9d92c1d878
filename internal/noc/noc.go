// Package noc models the mesh network-on-chip connecting L3 cache clusters,
// the host tile and the memory controller. Messages are accounted per
// traffic class so Fig. 10's breakdown (host ctrl/data vs inter-accelerator
// ctrl/data) can be regenerated. Routing is dimension-ordered (XY) and
// latency is hops × per-hop delay plus flit serialization; credit-based
// back-pressure is abstracted as lossless transfer (the decoupling buffers
// at endpoints provide the rate matching, §IV-C).
package noc

import (
	"fmt"

	"distda/internal/energy"
)

// Class labels a message for Fig. 10 accounting.
type Class int

const (
	// HostCtrl: host-initiated request/response control (MMIO config,
	// cp_run, scalar register transfers).
	HostCtrl Class = iota
	// HostData: demand data moving on behalf of the host (cache fills,
	// writebacks, host load/store data).
	HostData
	// AccCtrl: inter-accelerator control (produce/consume handshakes,
	// credits, step notifications).
	AccCtrl
	// AccData: inter-accelerator operand data.
	AccData
	numClasses
)

var classNames = [...]string{"ctrl", "data", "acc_ctrl", "acc_data"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists all traffic classes in Fig. 10 order.
func Classes() []Class { return []Class{HostCtrl, HostData, AccCtrl, AccData} }

// Config describes the mesh.
type Config struct {
	Width, Height int // node grid; clusters occupy nodes 0..W*H-1
	FlitBytes     int
	HopCycles     int // router+link traversal per hop
}

// DefaultConfig is the 4x2 cluster mesh of Table III.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 2, FlitBytes: 16, HopCycles: 2}
}

// Mesh is the NoC model.
type Mesh struct {
	cfg   Config
	meter *energy.Meter

	Bytes    [numClasses]int64
	Messages [numClasses]int64
	FlitHops [numClasses]int64

	// linkFlits counts flits traversing each directed link (indexed
	// from*Nodes()+to for adjacent node pairs along the XY route) while
	// linkProf is set. Allocated by EnableLinkProfile; purely
	// observational.
	linkFlits []int64
	linkProf  bool
}

// New returns a mesh with the given config, metering energy into m.
func New(cfg Config, m *energy.Meter) *Mesh {
	return &Mesh{cfg: cfg, meter: m}
}

// Reset returns n to the state New(cfg, m) would build: every counter at
// zero and link profiling off. The link counters' storage is kept for the
// next EnableLinkProfile, so a simulator can reuse one machine's mesh from
// run to run.
func (n *Mesh) Reset(cfg Config, m *energy.Meter) {
	*n = Mesh{cfg: cfg, meter: m, linkFlits: n.linkFlits}
}

// Nodes returns the node count.
func (n *Mesh) Nodes() int { return n.cfg.Width * n.cfg.Height }

// EnableLinkProfile turns on per-link flit attribution: Transfer walks each
// message's XY route and counts flits per directed link. Off by default —
// the route walk costs nothing unless enabled.
func (n *Mesh) EnableLinkProfile() {
	if sz := n.Nodes() * n.Nodes(); cap(n.linkFlits) < sz {
		n.linkFlits = make([]int64, sz)
	} else {
		n.linkFlits = n.linkFlits[:sz]
		clear(n.linkFlits)
	}
	n.linkProf = true
}

// LinkName returns the canonical directed-link label between adjacent nodes.
func (n *Mesh) LinkName(from, to int) string {
	return fmt.Sprintf("n%d->n%d", from, to)
}

// VisitLinks calls fn for every directed link with traffic, in ascending
// (from, to) order. No-op when link profiling is disabled.
func (n *Mesh) VisitLinks(fn func(from, to int, flits int64)) {
	if !n.linkProf {
		return
	}
	nodes := n.Nodes()
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			if f := n.linkFlits[from*nodes+to]; f > 0 {
				fn(from, to, f)
			}
		}
	}
}

// walkRoute visits the directed links of the XY route from a to b.
func (n *Mesh) walkRoute(a, b int, fn func(from, to int)) {
	w := n.cfg.Width
	cx, cy := a%w, a/w
	bx, by := b%w, b/w
	for cx != bx {
		nx := cx + sign(bx-cx)
		fn(cy*w+cx, cy*w+nx)
		cx = nx
	}
	for cy != by {
		ny := cy + sign(by-cy)
		fn(cy*w+cx, ny*w+cx)
		cy = ny
	}
}

// Hops returns the XY-routed hop count between nodes a and b.
func (n *Mesh) Hops(a, b int) int {
	ax, ay := a%n.cfg.Width, a/n.cfg.Width
	bx, by := b%n.cfg.Width, b/n.cfg.Width
	return abs(ax-bx) + abs(ay-by)
}

// Flits returns the flit count for a payload of the given bytes (minimum 1:
// even a pure control message occupies a head flit).
func (n *Mesh) Flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
}

// MinLatency returns the smallest latency any message can experience from
// node a to node b: one local cycle when co-located, otherwise the pure
// route traversal (hops × per-hop delay, single-flit payload). It performs
// no accounting — conservative window coordinators use it as the lookahead
// bound under which Transfer's per-message latency can never fall.
func (n *Mesh) MinLatency(a, b int) int {
	hops := n.Hops(a, b)
	if hops == 0 {
		return 1
	}
	return hops * n.cfg.HopCycles
}

// Transfer accounts for one message of the given class from node a to node
// b and returns its latency in cycles. Transfers between co-located
// endpoints (a == b) cost one local hop's latency but no flit-hop energy.
func (n *Mesh) Transfer(a, b, bytes int, class Class) int {
	if a < 0 || a >= n.Nodes() || b < 0 || b >= n.Nodes() {
		panic(fmt.Sprintf("noc: transfer between invalid nodes %d -> %d (mesh has %d)", a, b, n.Nodes()))
	}
	hops := n.Hops(a, b)
	flits := n.Flits(bytes)
	n.Bytes[class] += int64(bytes)
	n.Messages[class]++
	n.FlitHops[class] += int64(flits * hops)
	if n.meter != nil && hops > 0 {
		n.meter.AddN(energy.CatNoC, int64(flits*hops), n.meter.Table.NoCFlitHopPJ)
	}
	if n.linkProf && hops > 0 {
		nodes := n.Nodes()
		n.walkRoute(a, b, func(from, to int) {
			n.linkFlits[from*nodes+to] += int64(flits)
		})
	}
	if hops == 0 {
		return 1
	}
	return hops*n.cfg.HopCycles + (flits - 1)
}

// TotalBytes returns bytes moved across all classes.
func (n *Mesh) TotalBytes() int64 {
	var t int64
	for _, b := range n.Bytes {
		t += b
	}
	return t
}

// BytesByClass returns the per-class byte counts in Fig. 10 order.
func (n *Mesh) BytesByClass() map[string]int64 {
	out := map[string]int64{}
	for _, c := range Classes() {
		out[c.String()] = n.Bytes[c]
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	if x > 0 {
		return 1
	}
	return 0
}
