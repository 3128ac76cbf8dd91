// Package sweep is a single-pass multi-configuration cache-simulation
// engine: for a fixed line size it computes the exact per-set LRU hit/miss
// counts of an entire capacity × associativity grid in ONE pass over a
// trace, instead of one full simulation per configuration.
//
// The engine generalizes the Mattson stack machinery in internal/threec
// from the fully-associative spectrum to set-associative grids: for LRU
// with bit-selection indexing, a reference hits a cache with S sets and
// associativity A iff its PER-SET stack distance — the number of distinct
// lines mapping to the same set touched since the previous access to this
// line, inclusive — is at most A (Mattson's inclusion property applied
// within each set). The engine therefore maintains, for every distinct set
// count in the grid, an array of per-set recency stacks truncated at the
// largest associativity any grid cell needs; one position scan per
// reference per set count settles hit/miss for every associativity at that
// set count simultaneously.
//
// Complexity: O(refs · Σ_S Amax(S)) worst case with tiny constants (the
// common case — a re-reference to the most recent line of its set — is a
// single compare), versus O(configs · refs) full cache simulations for the
// per-config path. Space is O(Σ_S S·Amax(S)) words, independent of trace
// length. The miss counts are bit-identical to replaying each
// configuration through cache.Cache / fetch.NewBlocking —
// internal/check's sweep differential enforces exactly that.
//
// Pass.Run consumes materialized refs in an inlined per-reference hot loop:
// the reference every other path is checked against. Every run-compacted
// trace shape — an in-memory []trace.Run, a columnar file block by block, a
// per-reference stream compacted on the fly — goes through one line-granular
// kernel over trace.Chunks, SampledPass.RunChunks; Pass.RunChunks is its
// exhaustive case (sampling off), and RunBlocks and RunSeek wrap a shape in
// its adapter.
package sweep

import (
	"context"

	"ibsim/internal/trace"
)

// Cell is one cache geometry of a grid, at the pass's fixed line size:
// Sets × Assoc lines, i.e. Sets·Assoc·LineSize bytes of capacity.
type Cell struct {
	// Sets is the number of sets; a power of two.
	Sets int
	// Assoc is the set associativity (>= 1); Sets == 1 with Assoc == lines
	// models a fully-associative cache.
	Assoc int
}

// Size returns the cell's capacity in bytes at the given line size.
func (c Cell) Size(lineSize int) int { return c.Sets * c.Assoc * lineSize }

// Matrix is the result of one pass: per-cell demand-miss counts plus the
// shared access and first-touch totals.
type Matrix struct {
	// LineSize is the pass's line size in bytes.
	LineSize int
	// Accesses is the number of references processed (every cell's
	// hit+miss total).
	Accesses int64
	// Distinct is the number of distinct lines touched — the compulsory
	// (first-touch) miss count, included in every cell's Misses. Counted
	// only when the pass was run with CountDistinct; otherwise 0.
	Distinct int64
	// Cells echoes the grid, parallel to Misses.
	Cells []Cell
	// Misses holds each cell's total demand misses.
	Misses []int64
}

// MissesFor returns the miss count of the cell with the given capacity in
// bytes and associativity, and whether the grid contains it.
func (m *Matrix) MissesFor(sizeBytes, assoc int) (int64, bool) {
	if assoc < 1 || sizeBytes <= 0 {
		return 0, false
	}
	lines := sizeBytes / m.LineSize
	if lines == 0 || lines%assoc != 0 {
		return 0, false
	}
	want := Cell{Sets: lines / assoc, Assoc: assoc}
	for i, c := range m.Cells {
		if c == want {
			return m.Misses[i], true
		}
	}
	return 0, false
}

// Pass configures one sweep over a trace.
type Pass struct {
	// LineSize is the line size in bytes shared by every cell; a power of
	// two >= trace.InstrBytes.
	LineSize int
	// Cells is the capacity × associativity grid.
	Cells []Cell
	// CountDistinct additionally counts distinct lines (compulsory
	// misses) into Matrix.Distinct; it costs one hash-set probe per
	// reference, so it is off unless a Three-Cs style decomposition needs
	// it.
	CountDistinct bool
	// Ctx, when non-nil, lets a long pass be cancelled: Run polls it every
	// cancelCheckMask+1 references and returns ctx.Err() promptly instead
	// of finishing the trace. Nil runs to completion.
	Ctx context.Context
}

// cancelCheckMask sets the cancellation polling stride (every 64K refs —
// microseconds of work, so cancellation latency stays negligible while the
// hot loop pays one masked compare per reference).
const cancelCheckMask = 1<<16 - 1

// Run is the common case: a miss matrix for cells at lineSize, without
// first-touch counting.
func Run(lineSize int, cells []Cell, refs []trace.Ref) (*Matrix, error) {
	return Pass{LineSize: lineSize, Cells: cells}.Run(refs)
}

// groupCell is one grid cell's slot within its set-count group.
type groupCell struct {
	assoc int
	out   int // index into Matrix.Misses
}

// group aggregates every cell sharing one set count: a single truncated
// recency stack array serves them all.
type group struct {
	mask  uint64 // Sets - 1
	amax  int    // deepest associativity among the group's cells
	stack []uint64
	cells []groupCell
}

// Run executes the pass and returns the miss matrix.
func (p Pass) Run(refs []trace.Ref) (*Matrix, error) {
	st, _, err := p.exhaustive().prepare()
	if err != nil {
		return nil, err
	}
	m, groups, seen, shift := st.m, st.groups, st.seen, st.shift
	for ri, r := range refs {
		if p.Ctx != nil && ri&cancelCheckMask == 0 {
			if err := p.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		la := r.Addr >> shift
		key := la + 1
		if seen != nil && seen.add(key) {
			m.Distinct++
		}
		for _, g := range groups {
			base := int(la&g.mask) * g.amax
			st := g.stack[base : base+g.amax]
			if st[0] == key {
				// Stack distance 1: a hit at every associativity.
				continue
			}
			pos := -1
			for i := 1; i < g.amax; i++ {
				if st[i] == key {
					pos = i
					break
				}
			}
			if pos < 0 {
				// Distance beyond the deepest tracked associativity (or a
				// first touch): a miss in every cell of the group.
				for _, c := range g.cells {
					m.Misses[c.out]++
				}
				copy(st[1:], st[:g.amax-1])
			} else {
				// Stack distance pos+1: cells shallower than that miss.
				for _, c := range g.cells {
					if c.assoc <= pos {
						m.Misses[c.out]++
					}
				}
				copy(st[1:pos+1], st[:pos])
			}
			st[0] = key
		}
		m.Accesses++
	}
	return m, nil
}

// RunChunks executes the pass over a run-chunk source in O(grid) memory
// plus one chunk, and returns the same miss matrix Run produces over the
// equivalent expanded refs (every run instruction is an instruction fetch).
// It is the exhaustive case of SampledPass.RunChunks, whose measured counts
// are the matrix: one stack operation per touched line rather than per
// instruction, exact because within a sequential run only a line's first
// access can change stack state. A source that fails mid-trace fails the
// pass with its error; the partial matrix is discarded.
func (p Pass) RunChunks(src trace.Chunks) (*Matrix, error) {
	sm, err := p.exhaustive().RunChunks(src)
	if err != nil {
		return nil, err
	}
	return &Matrix{LineSize: sm.LineSize, Accesses: sm.SampledInstructions, Distinct: sm.Distinct,
		Cells: sm.Cells, Misses: sm.Misses}, nil
}

// RunBlocks is RunChunks over a block-granular trace (a columnar file).
func (p Pass) RunBlocks(bs trace.BlockSource) (*Matrix, error) {
	return p.RunChunks(trace.NewBlockChunks(bs))
}

// exhaustive returns p as a sampled pass with sampling off.
func (p Pass) exhaustive() SampledPass {
	return SampledPass{LineSize: p.LineSize, Cells: p.Cells, CountDistinct: p.CountDistinct, Ctx: p.Ctx}
}

// lineSet is a minimal open-addressing hash set over non-zero uint64 keys,
// used for first-touch counting without per-access map overhead.
type lineSet struct {
	tab  []uint64
	n    int
	mask uint64
}

func newLineSet() *lineSet {
	const initial = 1 << 10
	return &lineSet{tab: make([]uint64, initial), mask: initial - 1}
}

// add inserts key (non-zero) and reports whether it was absent.
func (s *lineSet) add(key uint64) bool {
	i := (key * 0x9e3779b97f4a7c15) & s.mask
	for {
		switch s.tab[i] {
		case key:
			return false
		case 0:
			s.tab[i] = key
			s.n++
			if 4*s.n > 3*len(s.tab) {
				s.grow()
			}
			return true
		}
		i = (i + 1) & s.mask
	}
}

func (s *lineSet) grow() {
	old := s.tab
	s.tab = make([]uint64, 2*len(old))
	s.mask = uint64(len(s.tab) - 1)
	s.n = 0
	for _, k := range old {
		if k != 0 {
			s.add(k)
		}
	}
}
