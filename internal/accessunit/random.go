package accessunit

import "distda/internal/energy"

// RandomPort serves an accelerator's cp_read / cp_write random accesses:
// object-id + offset are translated to a physical address and the request
// goes through the cluster's cache interface (§IV-B "Random access
// mechanisms"). Word-granularity payloads move between bank and
// accelerator.
type RandomPort struct {
	mem     Memory
	fetch   Fetcher
	cluster int
	stats   *Stats
	meter   *energy.Meter

	// Prefill marks objects whose window was block-fetched into the local
	// buffer with cp_fill_ra (§IV-B): loads hit the SRAM buffer instead of
	// the cache interface.
	Prefill map[string]bool

	Loads  int64
	Stores int64
}

// prefillLatency is a buffer probe in base cycles.
const prefillLatency = 4

// NewRandomPort builds a port for an accelerator at the given cluster.
func NewRandomPort(mem Memory, fetch Fetcher, cluster int, stats *Stats, meter *energy.Meter) *RandomPort {
	p := &RandomPort{}
	p.Reset(mem, fetch, cluster, stats, meter)
	return p
}

// Reset returns p to the state NewRandomPort with the same arguments would
// build: no prefilled objects and zeroed counters, so a simulator can
// recycle one launch's ports for the next.
func (p *RandomPort) Reset(mem Memory, fetch Fetcher, cluster int, stats *Stats, meter *energy.Meter) {
	*p = RandomPort{mem: mem, fetch: fetch, cluster: cluster, stats: stats, meter: meter}
}

func (p *RandomPort) account(elemBytes int) {
	p.stats.DABytes += int64(elemBytes)
	if p.meter != nil {
		p.meter.Add(energy.CatAccel, p.meter.Table.TranslatePJ)
	}
}

// Load reads obj[idx], returning the value and the access latency.
func (p *RandomPort) Load(obj string, idx int64) (float64, int, error) {
	eb, err := p.mem.ElemBytes(obj)
	if err != nil {
		return 0, 0, err
	}
	addr, err := p.mem.AddrOf(obj, idx)
	if err != nil {
		return 0, 0, err
	}
	v, err := p.mem.Read(obj, idx)
	if err != nil {
		return 0, 0, err
	}
	p.Loads++
	if p.Prefill[obj] {
		p.stats.IntraBytes += int64(eb)
		if p.meter != nil {
			p.meter.Add(energy.CatBuffer, p.meter.Table.BufferPJ)
		}
		_ = addr
		return v, prefillLatency, nil
	}
	lat := p.fetch.Access(p.cluster, addr, false, eb)
	p.account(eb)
	return v, lat, nil
}

// Store writes obj[idx] = v, returning the access latency.
func (p *RandomPort) Store(obj string, idx int64, v float64) (int, error) {
	eb, err := p.mem.ElemBytes(obj)
	if err != nil {
		return 0, err
	}
	addr, err := p.mem.AddrOf(obj, idx)
	if err != nil {
		return 0, err
	}
	if err := p.mem.Write(obj, idx, v); err != nil {
		return 0, err
	}
	lat := p.fetch.Access(p.cluster, addr, true, eb)
	p.account(eb)
	p.Stores++
	return lat, nil
}
