package vm

import (
	"fmt"
	"math"
	"math/bits"

	"ibsim/internal/trace"
)

// Page-segment translation.
//
// A page mapping changes only which frame each page lands in, never where
// an instruction sits within its page. A run-compacted trace split once at
// page boundaries therefore serves every mapping trial: each trial resolves
// one frame per distinct page (Frames) instead of one map lookup per
// reference, and each segment becomes a sequential run at its page's frame
// base plus its offset, ready for the cache's bulk-run path.

// Page is one distinct (domain, virtual page) pair of a trace.
type Page struct {
	Domain trace.Domain
	VPN    uint64
}

// Segment is the part of one sequential instruction run that lies inside
// one page: Len instructions starting Offset bytes into Paged.Pages[Page].
type Segment struct {
	Page   uint32
	Offset uint32
	Len    uint32
}

// Paged is a run-compacted instruction trace split at page boundaries.
type Paged struct {
	// PageSize is the page size the trace was split at.
	PageSize int
	// Pages lists the distinct pages in first-touch order.
	Pages []Page
	// Segments are the trace's instructions in execution order.
	Segments []Segment
}

// Split cuts runs at every pageSize boundary and indexes the pages they
// touch. pageSize must be a power of two no larger than 4 GiB.
func Split(runs []trace.Run, pageSize int) (*Paged, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 || uint64(pageSize) > 1<<32 {
		return nil, fmt.Errorf("vm: split page size %d must be a power of two no larger than 4 GiB", pageSize)
	}
	shift := uint(bits.TrailingZeros64(uint64(pageSize)))
	mask := uint64(pageSize - 1)
	p := &Paged{PageSize: pageSize, Segments: make([]Segment, 0, len(runs))}
	index := make(map[Page]uint32)
	for _, r := range runs {
		addr, n := r.Start, r.Len
		for n > 0 {
			pg := Page{Domain: r.Domain, VPN: addr >> shift}
			idx, ok := index[pg]
			if !ok {
				if uint64(len(p.Pages)) == math.MaxUint32 {
					return nil, fmt.Errorf("vm: split: more than %d distinct pages", uint32(math.MaxUint32))
				}
				idx = uint32(len(p.Pages))
				index[pg] = idx
				p.Pages = append(p.Pages, pg)
			}
			// Instructions of the run that start inside this page. On the
			// top page (addr|mask)+1 wraps to 0, and the unsigned difference
			// is still the distance to the end of the address space.
			k := n
			if room := int64(((addr|mask)+1-addr)+trace.InstrBytes-1) / trace.InstrBytes; room < k {
				k = room
			}
			p.Segments = append(p.Segments, Segment{Page: idx, Offset: uint32(addr & mask), Len: uint32(k)})
			addr += uint64(k) * trace.InstrBytes
			n -= k
		}
	}
	return p, nil
}

// Frames assigns frames to p's pages and returns each page's physical base
// address, indexed like p.Pages, reusing dst's storage. It translates each
// page's base address through Translate in first-touch order, so the mapper
// allocates exactly the frames, in exactly the order and with exactly the
// random draws, that translating the trace reference by reference would:
// the i-th instruction of segment s sits at physical address
// (frames[s.Page] | s.Offset) + i*trace.InstrBytes. p must have been split
// at the mapper's page size.
func (m *Mapper) Frames(p *Paged, dst []uint64) []uint64 {
	if p.PageSize != m.cfg.PageSize {
		panic(fmt.Sprintf("vm: Frames: trace split at %d-byte pages, mapper uses %d", p.PageSize, m.cfg.PageSize))
	}
	dst = dst[:0]
	for _, pg := range p.Pages {
		dst = append(dst, m.Translate(pg.VPN<<m.pageShift, pg.Domain))
	}
	return dst
}
