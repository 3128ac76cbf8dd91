package sweep

import (
	"context"
	"errors"
	"fmt"

	"ibsim/internal/sampling"
	"ibsim/internal/trace"
)

// Sampled sweep: the same capacity × associativity grid as Pass, but
// simulating only a statistical sample of the trace and reporting each cell
// as a sampling.Estimate{MPI, CI95, Coverage} instead of a bare count.
//
// Two orthogonal sampling dimensions, composable:
//
//   - Set sampling (SetMod/SetMatch): only lines whose line address is
//     congruent to SetMatch modulo SetMod are simulated. With bit-selection
//     indexing a cache with S >= SetMod sets maps those lines onto exactly
//     S/SetMod whole sets, and LRU sets are independent, so the simulation
//     is EXACT within the sampled subset — the only error is extrapolating
//     from S/SetMod sets to S. Work drops by ~SetMod: the engine walks the
//     run-compacted trace line-granularly and jumps straight to matching
//     lines. The confidence interval treats each sampled set group as one
//     cluster.
//
//   - Time sampling (Window/Period): out of every Period instructions the
//     first Window are measured. Warm processes skipped spans line-granularly
//     so stacks stay current ("functional warming", unbiased); !Warm skips
//     them entirely — fastest, but windows start with stale stack state, the
//     trap-driven-tool bias internal/sampling quantifies. Each window is one
//     cluster.
//
// The engine processes runs at line granularity: within one sequential run a
// line's first access is the only one that can change stack state (addresses
// strictly increase, so accesses between a line's first and last touch all
// hit it at distance 1), so each touched line costs one stack operation
// regardless of how many instructions it holds.
type SampledPass struct {
	// LineSize is the line size in bytes shared by every cell; a power of
	// two >= trace.InstrBytes.
	LineSize int
	// Cells is the capacity × associativity grid.
	Cells []Cell
	// SetMod/SetMatch select the sampled line-address class (line addresses
	// congruent to SetMatch mod SetMod). SetMod must be a power of two and
	// every cell must have Sets >= SetMod, so the class maps onto whole
	// sets; SetMod <= 1 disables set sampling.
	SetMod   int
	SetMatch int
	// Window/Period schedule time sampling: the first Window of every
	// Period instructions are measured. Period 0 (with Window 0) disables;
	// Window == Period measures everything.
	Window int64
	Period int64
	// Warm keeps stacks current through unmeasured spans; false skips them.
	// Irrelevant without time sampling.
	Warm bool
	// CountDistinct counts distinct measured lines into
	// SampledMatrix.Distinct.
	CountDistinct bool
	// Ctx, when non-nil, cancels a long pass between runs.
	Ctx context.Context
}

// SampledMatrix is the result of one sampled sweep.
type SampledMatrix struct {
	// LineSize is the pass's line size in bytes.
	LineSize int
	// TotalInstructions is the full trace length the estimates extrapolate
	// to; SampledInstructions is how many were actually measured.
	TotalInstructions   int64
	SampledInstructions int64
	// Distinct counts distinct measured lines (0 unless CountDistinct).
	Distinct int64
	// Cells echoes the grid, parallel to Misses and Estimates.
	Cells []Cell
	// Misses holds each cell's measured miss count (within the sampled
	// sets/windows — NOT extrapolated).
	Misses []int64
	// Estimates holds each cell's extrapolated MPI estimate with its 95%
	// confidence interval.
	Estimates []sampling.Estimate
}

// Coverage returns the measured fraction of the trace.
func (m *SampledMatrix) Coverage() float64 {
	if m.TotalInstructions == 0 {
		return 0
	}
	return float64(m.SampledInstructions) / float64(m.TotalInstructions)
}

// sampledRunCheckMask sets the cancellation polling stride in runs (runs
// average a handful of instructions, so this is a few ten-thousand
// instructions of latency at worst).
const sampledRunCheckMask = 1<<12 - 1

// sampledState carries the hot-loop state of one sampled pass.
type sampledState struct {
	m      *Matrix // Accesses = measured instructions, Misses = measured misses
	groups []*group
	seen   *lineSet
	shift  uint
	ipl    int64 // instructions per line (power of two)
	iplSh  uint  // log2(ipl): div/mod by ipl as shifts in the per-run path

	// Set sampling (mod > 1): lines ≡ match (mod mod). Only sets congruent
	// to match are ever touched, so stacks are allocated compactly — one row
	// per SAMPLED set — and rowShift (= log2(mod)) maps a set index to its
	// row. 0 without set sampling. The ~mod× smaller footprint keeps the
	// stacks cache-resident, which is where the sampled pass wins its time.
	mod      uint64
	match    uint64
	rowShift uint

	// Per-set-group clustering (set sampling without time sampling):
	// cluster index k = (set index) >> kshift, i.e. one cluster per sampled
	// congruence class of sets. Instructions are tallied per group (the
	// same line lands in different clusters under different set counts),
	// misses per cell.
	setCluster bool
	kshift     uint
	kInstr     [][]int64 // [group][k]
	kMiss      [][]int64 // [cell][k]

	// Per-window clustering (time sampling).
	winCluster  bool
	winClusters [][]sampling.Cluster // [cell][window]
	winPrev     []int64              // per-cell miss snapshot at window open
	winInstr    int64
	curWin      int64
}

// RunChunks executes the sampled pass over a run-chunk source. A skip-mode
// time pass (Warm off, Window < Period) over a source with windows
// (trace.Windows: in-memory runs, a columnar block index, or a checkpointed
// trace.Seeker) visits only the measured windows, so the gaps are never
// decoded or generated. Otherwise every chunk is fed in turn: set-only passes through
// the runSetOnly fast path (its state is all in the stacks), the rest
// through feed with the absolute position carried across chunks. The
// line-granular touch machinery is segmentation-invariant, so every route
// produces the matrix Run produces over the same trace.
func (p SampledPass) RunChunks(src trace.Chunks) (*SampledMatrix, error) {
	st, timeSample, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if w, ok := src.(trace.Windows); ok && timeSample && !p.Warm {
		err := trace.EachWindow(p.Ctx, w, p.Window, p.Period, func(spans []trace.Run) {
			st.closeWindow()
			st.curWin++
			for _, sp := range spans {
				st.span(sp.Start, sp.Len, true)
			}
		})
		if err != nil {
			return nil, err
		}
		st.closeWindow()
		return p.assemble(st, w.Total()), nil
	}
	var pos int64
	err = trace.EachChunk(p.Ctx, src, func(runs []trace.Run) error {
		if timeSample || st.mod <= 1 {
			var err error
			pos, err = p.feed(st, runs, pos, timeSample)
			return err
		}
		n, err := st.runSetOnly(runs, p.Ctx)
		pos += n
		return err
	})
	if err != nil {
		return nil, err
	}
	st.closeWindow()
	return p.assemble(st, pos), nil
}

// Run executes the sampled pass over a run-compacted trace in memory.
func (p SampledPass) Run(runs []trace.Run) (*SampledMatrix, error) {
	return p.RunChunks(trace.RunChunks(runs))
}

// RunSeek executes a skip-mode time-sampled pass over a checkpointed
// seekable source, generating only the measured windows: O(sampled refs +
// windows · checkpoint interval) instead of O(n). Warm and set-only passes
// would walk every instruction and are refused; set sampling composed with
// skip-mode time sampling is fine.
func (p SampledPass) RunSeek(src trace.Seeker) (*SampledMatrix, error) {
	if p.Window <= 0 || p.Window >= p.Period || p.Warm {
		return nil, errors.New("sweep: RunSeek requires skip-mode time sampling with window < period (warm mode must walk skipped spans; use RunChunks)")
	}
	return p.RunChunks(trace.SeekChunks(src))
}

// feed advances the pass over the next chunk of runs, which begins at
// absolute instruction position pos, and returns the advanced position. All
// sampling state (window clusters, curWin, stacks) lives in st, so feeding
// the trace as one slice or block by block produces identical matrices.
func (p SampledPass) feed(st *sampledState, runs []trace.Run, pos int64, timeSample bool) (int64, error) {
	for ri, r := range runs {
		if p.Ctx != nil && ri&sampledRunCheckMask == 0 {
			if err := p.Ctx.Err(); err != nil {
				return 0, err
			}
		}
		if !timeSample {
			st.span(r.Start, r.Len, true)
			pos += r.Len
			continue
		}
		for off := int64(0); off < r.Len; {
			phase := (pos + off) % p.Period
			if phase < p.Window {
				seg := p.Window - phase
				if rem := r.Len - off; seg > rem {
					seg = rem
				}
				if win := (pos + off) / p.Period; win != st.curWin {
					st.closeWindow()
					st.curWin = win
				}
				st.span(r.Start+uint64(off)*trace.InstrBytes, seg, true)
				off += seg
			} else {
				seg := p.Period - phase
				if rem := r.Len - off; seg > rem {
					seg = rem
				}
				if p.Warm {
					st.span(r.Start+uint64(off)*trace.InstrBytes, seg, false)
				}
				off += seg
			}
		}
		pos += r.Len
	}
	return pos, nil
}

// prepare validates the pass and builds its state: the matrix, one group
// per distinct set count with its recency stacks, the optional first-touch
// set, and the sampling clusters. It is the one prepare of both pass kinds;
// Pass.Run uses the exhaustive state's matrix, groups and shift directly.
func (p SampledPass) prepare() (*sampledState, bool, error) {
	if p.LineSize < trace.InstrBytes || p.LineSize&(p.LineSize-1) != 0 {
		return nil, false, fmt.Errorf("sweep: line size %d must be a power of two >= the %d-byte instruction size", p.LineSize, trace.InstrBytes)
	}
	if len(p.Cells) == 0 {
		return nil, false, fmt.Errorf("sweep: empty cell grid")
	}
	m := &Matrix{
		LineSize: p.LineSize,
		Cells:    append([]Cell(nil), p.Cells...),
		Misses:   make([]int64, len(p.Cells)),
	}
	bySets := make(map[int]*group)
	var groups []*group
	for i, c := range p.Cells {
		if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
			return nil, false, fmt.Errorf("sweep: cell %d: set count %d must be a positive power of two", i, c.Sets)
		}
		if c.Assoc < 1 {
			return nil, false, fmt.Errorf("sweep: cell %d: associativity %d must be >= 1", i, c.Assoc)
		}
		g, ok := bySets[c.Sets]
		if !ok {
			g = &group{mask: uint64(c.Sets - 1)}
			bySets[c.Sets] = g
			groups = append(groups, g)
		}
		g.amax = max(g.amax, c.Assoc)
		g.cells = append(g.cells, groupCell{assoc: c.Assoc, out: i})
	}
	if p.SetMod > 1 {
		if p.SetMod&(p.SetMod-1) != 0 {
			return nil, false, fmt.Errorf("sweep: set-sampling modulus %d must be a power of two", p.SetMod)
		}
		if p.SetMatch < 0 || p.SetMatch >= p.SetMod {
			return nil, false, fmt.Errorf("sweep: set-sampling match %d outside [0,%d)", p.SetMatch, p.SetMod)
		}
		for i, c := range p.Cells {
			if c.Sets < p.SetMod {
				return nil, false, fmt.Errorf("sweep: cell %d has %d sets < set-sampling modulus %d (sampled lines would not cover whole sets)", i, c.Sets, p.SetMod)
			}
		}
	} else if p.SetMatch != 0 {
		return nil, false, fmt.Errorf("sweep: set-sampling match %d without a modulus", p.SetMatch)
	}
	timeSample := p.Period > 0 || p.Window > 0
	if timeSample {
		if p.Window <= 0 {
			return nil, false, fmt.Errorf("sweep: sampling window %d must be positive", p.Window)
		}
		if p.Period < p.Window {
			return nil, false, fmt.Errorf("sweep: sampling period %d < window %d", p.Period, p.Window)
		}
		// Window == Period measures everything: no windows to cluster by.
		timeSample = p.Window < p.Period
	}

	st := &sampledState{
		m:      m,
		groups: groups,
		ipl:    int64(p.LineSize / trace.InstrBytes),
		curWin: -1,
	}
	if p.CountDistinct {
		st.seen = newLineSet()
	}
	for v := p.LineSize; v > 1; v >>= 1 {
		st.shift++
	}
	for v := st.ipl; v > 1; v >>= 1 {
		st.iplSh++
	}
	if p.SetMod > 1 {
		st.mod = uint64(p.SetMod)
		st.match = uint64(p.SetMatch)
		for v := st.mod; v > 1; v >>= 1 {
			st.rowShift++
		}
	}
	for _, g := range groups {
		// Stacks are row-major, one row per set this pass can actually
		// touch: all of them, or the sampled congruence class (rowShift
		// compaction). Key 0 marks an empty slot, so line addresses are
		// stored offset by one.
		g.stack = make([]uint64, int((g.mask+1)>>st.rowShift)*g.amax)
	}
	switch {
	case timeSample:
		st.winCluster = true
		st.winClusters = make([][]sampling.Cluster, len(p.Cells))
		st.winPrev = make([]int64, len(p.Cells))
	case st.mod > 1:
		st.setCluster = true
		st.kshift = st.rowShift
		st.kInstr = make([][]int64, len(groups))
		for gi, g := range groups {
			st.kInstr[gi] = make([]int64, (g.mask+1)>>st.kshift)
		}
		st.kMiss = make([][]int64, len(p.Cells))
		for _, g := range groups {
			nk := (g.mask + 1) >> st.kshift
			for _, c := range g.cells {
				st.kMiss[c.out] = make([]int64, nk)
			}
		}
	}
	return st, timeSample, nil
}

// runSetOnly is the set-sampling-only hot loop: every instruction is
// temporally measured, so the only work is locating the sampled congruence
// class within each run — typically zero or one lines. Equivalent to calling
// span(r.Start, r.Len, true) per run; specialized so the per-run cost stays
// a few nanoseconds (the whole point of the ~SetMod× speedup).
func (st *sampledState) runSetOnly(runs []trace.Run, ctx context.Context) (int64, error) {
	var pos int64
	shift, ipl, iplSh := st.shift, st.ipl, st.iplSh
	mod1, match := st.mod-1, st.match
	for ri, r := range runs {
		if ctx != nil && ri&sampledRunCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		pos += r.Len
		first := r.Start >> shift
		delta := int64((match - first) & mod1)
		if delta > (r.Len>>iplSh)+1 {
			// The run spans at most (Len>>iplSh)+2 lines, so it cannot reach
			// the sampled class: skip with one compare — the common case.
			continue
		}
		head := ipl - int64(r.Start/trace.InstrBytes)&(ipl-1)
		if head >= r.Len {
			if delta == 0 {
				st.touch(first, r.Len, true)
			}
			continue
		}
		nlines := int64(1) + (r.Len-head+ipl-1)>>iplSh
		for i := delta; i < nlines; i += int64(mod1 + 1) {
			st.touch(first+uint64(i), st.lineCnt(i, r.Len, head), true)
		}
	}
	return pos, nil
}

// span processes n sequential instructions starting at start, at line
// granularity; measured spans count, unmeasured (warm) spans only advance
// stack state.
func (st *sampledState) span(start uint64, n int64, measured bool) {
	first := start >> st.shift
	headOff := int64(start/trace.InstrBytes) & (st.ipl - 1) // instruction offset within the first line
	head := st.ipl - headOff
	if head >= n {
		// The whole span fits in one line — the common case for short runs.
		if st.mod > 1 && first&(st.mod-1) != st.match {
			return
		}
		st.touch(first, n, measured)
		return
	}
	nlines := int64(1) + (n-head+st.ipl-1)>>st.iplSh
	if st.mod > 1 {
		// Jump straight to the sampled congruence class.
		for i := int64((st.match - first) & (st.mod - 1)); i < nlines; i += int64(st.mod) {
			st.touch(first+uint64(i), st.lineCnt(i, n, head), measured)
		}
		return
	}
	for i := int64(0); i < nlines; i++ {
		st.touch(first+uint64(i), st.lineCnt(i, n, head), measured)
	}
}

// lineCnt returns how many of the span's n instructions fall in its i-th
// line, where the 0th line holds the first head of them.
func (st *sampledState) lineCnt(i, n, head int64) int64 {
	if i == 0 {
		return head
	}
	c := n - head - (i-1)*st.ipl
	if c > st.ipl {
		c = st.ipl
	}
	return c
}

// touch settles cnt sequential accesses to line la for every grid cell: one
// stack operation (the line's first access) plus cnt-1 distance-1 hits.
func (st *sampledState) touch(la uint64, cnt int64, measured bool) {
	key := la + 1
	if measured && st.seen != nil && st.seen.add(key) {
		st.m.Distinct++
	}
	for gi, g := range st.groups {
		base := int((la&g.mask)>>st.rowShift) * g.amax
		s := g.stack[base : base+g.amax]
		var k uint64
		if st.setCluster {
			k = (la & g.mask) >> st.kshift
			if measured {
				st.kInstr[gi][k] += cnt
			}
		}
		if s[0] == key {
			continue
		}
		pos := -1
		for i := 1; i < g.amax; i++ {
			if s[i] == key {
				pos = i
				break
			}
		}
		if pos < 0 {
			if measured {
				for _, c := range g.cells {
					st.m.Misses[c.out]++
					if st.setCluster {
						st.kMiss[c.out][k]++
					}
				}
			}
			copy(s[1:], s[:g.amax-1])
		} else {
			if measured {
				for _, c := range g.cells {
					if c.assoc <= pos {
						st.m.Misses[c.out]++
						if st.setCluster {
							st.kMiss[c.out][k]++
						}
					}
				}
			}
			copy(s[1:pos+1], s[:pos])
		}
		s[0] = key
	}
	if measured {
		st.m.Accesses += cnt
		st.winInstr += cnt
	}
}

// closeWindow flushes the open measurement window into one cluster per cell.
func (st *sampledState) closeWindow() {
	if !st.winCluster || st.curWin < 0 {
		return
	}
	if st.winInstr > 0 {
		for i := range st.winClusters {
			st.winClusters[i] = append(st.winClusters[i], sampling.Cluster{
				Instructions: st.winInstr,
				Misses:       st.m.Misses[i] - st.winPrev[i],
			})
		}
	}
	copy(st.winPrev, st.m.Misses)
	st.winInstr = 0
}

// assemble builds the result matrix with per-cell estimates.
func (p SampledPass) assemble(st *sampledState, total int64) *SampledMatrix {
	sm := &SampledMatrix{
		LineSize:            st.m.LineSize,
		TotalInstructions:   total,
		SampledInstructions: st.m.Accesses,
		Distinct:            st.m.Distinct,
		Cells:               st.m.Cells,
		Misses:              st.m.Misses,
		Estimates:           make([]sampling.Estimate, len(st.m.Cells)),
	}
	cellGroup := make([]int, len(sm.Cells))
	for gi, g := range st.groups {
		for _, c := range g.cells {
			cellGroup[c.out] = gi
		}
	}
	switch {
	case st.winCluster:
		// The sampled fraction of the population: instruction coverage
		// (which already folds in any set sampling — skipped lines are
		// never counted as measured).
		f := sm.Coverage()
		for i := range sm.Estimates {
			sm.Estimates[i] = sampling.EstimateFrom(st.winClusters[i], total, f)
		}
	case st.setCluster:
		f := 1 / float64(st.mod)
		for i := range sm.Estimates {
			gi := cellGroup[i]
			clusters := make([]sampling.Cluster, len(st.kMiss[i]))
			for k := range clusters {
				clusters[k] = sampling.Cluster{Instructions: st.kInstr[gi][k], Misses: st.kMiss[i][k]}
			}
			sm.Estimates[i] = sampling.EstimateFrom(clusters, total, f)
		}
	default:
		// Exhaustive: the estimate is the exact value.
		for i := range sm.Estimates {
			sm.Estimates[i] = sampling.EstimateFrom(
				[]sampling.Cluster{{Instructions: sm.SampledInstructions, Misses: sm.Misses[i]}}, total, 1)
		}
	}
	return sm
}
