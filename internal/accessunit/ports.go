package accessunit

import "fmt"

// InPort is a consuming endpoint over a buffer: an accelerator's view of a
// cp_consume-able access-id.
type InPort struct {
	Buf    *Buffer
	Reader int
}

// NewInPort attaches a reader starting at startSeq and returns the port.
func NewInPort(b *Buffer, startSeq int64) *InPort {
	p := &InPort{}
	p.Attach(b, startSeq)
	return p
}

// Attach points p at b with a new reader starting at startSeq: NewInPort
// into caller-owned storage.
func (p *InPort) Attach(b *Buffer, startSeq int64) {
	p.Buf, p.Reader = b, b.AttachReader(startSeq)
}

// OutPort is a producing endpoint over a buffer: an accelerator's view of a
// cp_produce-able access-id.
type OutPort struct {
	Buf *Buffer
}

// PortsByID checks ports, indexed by access id, against an accelerator
// with n accesses and returns them as a slice of length n. A slice of
// exactly that length is returned as is (engines index it directly); a
// shorter one is copied and padded with nil. A non-nil port at an id
// outside [0, n) is an error.
func PortsByID[P any](ports []*P, n int) ([]*P, error) {
	if len(ports) == n {
		return ports, nil
	}
	for id := n; id < len(ports); id++ {
		if ports[id] != nil {
			return nil, fmt.Errorf("access id %d out of range [0,%d)", id, n)
		}
	}
	out := make([]*P, n)
	copy(out, ports)
	return out, nil
}
