package replay

import (
	"context"
	"errors"
	"fmt"

	"ibsim/internal/fetch"
	"ibsim/internal/sampling"
	"ibsim/internal/trace"
)

// Sampled replay: the fan-out driver's speed/fidelity dial. Instead of
// feeding every engine the whole trace, feed it a statistical sample and
// report each engine's counters together with a sampling.Estimate carrying
// the MPI extrapolation and its 95% confidence interval.
//
// Two mutually exclusive plans:
//
//   - Time sampling (Window/Period): the first Window of every Period
//     instructions are measured. Warm feeds the skipped spans too — engine
//     state stays current ("functional warming", unbiased, the default for
//     the service tier) — while !Warm skips them entirely for maximum speed
//     at a stale-state bias. Each window is one variance cluster. Valid for
//     EVERY engine type: timing, stream buffers, prefetchers.
//
//   - Set sampling (SetMod/SetMatch at LineSize): only the lines of one
//     address congruence class are replayed, grouped into setClusters
//     subgroups fed in order. Exact within the subset only for prefetch-free
//     blocking engines whose line size equals LineSize and whose set count
//     is at least SetMod*setClusters (per-set access order is preserved);
//     engines with cross-set behavior (stream buffers, next-line prefetch)
//     see a distorted stream and get an approximation. The sweep engine is
//     the first-class home of set sampling — here it exists for
//     blocking-bank studies.
type SamplePlan struct {
	// Window/Period schedule time sampling: the first Window of every
	// Period instructions are measured. Window == Period measures
	// everything (exact, CI 0).
	Window int64
	Period int64
	// Warm replays unmeasured spans without counting them (engine state
	// stays warm); false skips them.
	Warm bool
	// SetMod/SetMatch/LineSize select set sampling instead: only lines (of
	// LineSize bytes) congruent to SetMatch mod SetMod are replayed.
	SetMod   int
	SetMatch int
	LineSize int
}

// setClusters is the number of congruence subgroups a set-sampled replay is
// split into for variance estimation (one Result snapshot per subgroup).
const setClusters = 8

// timeMode reports whether the plan uses time sampling.
func (p SamplePlan) timeMode() bool { return p.Window > 0 || p.Period > 0 }

// Validate checks the plan.
func (p SamplePlan) Validate() error {
	timeMode := p.timeMode()
	setMode := p.SetMod != 0 || p.SetMatch != 0 || p.LineSize != 0
	switch {
	case timeMode && setMode:
		return fmt.Errorf("replay: sampling plan mixes time and set dimensions; pick one")
	case timeMode:
		if p.Window <= 0 {
			return fmt.Errorf("replay: sampling window %d must be positive", p.Window)
		}
		if p.Period < p.Window {
			return fmt.Errorf("replay: sampling period %d < window %d", p.Period, p.Window)
		}
	case setMode:
		if p.SetMod <= 1 || p.SetMod&(p.SetMod-1) != 0 {
			return fmt.Errorf("replay: set-sampling modulus %d must be a power of two > 1", p.SetMod)
		}
		if p.SetMatch < 0 || p.SetMatch >= p.SetMod {
			return fmt.Errorf("replay: set-sampling match %d outside [0,%d)", p.SetMatch, p.SetMod)
		}
		if p.LineSize < trace.InstrBytes || p.LineSize&(p.LineSize-1) != 0 {
			return fmt.Errorf("replay: set-sampling line size %d must be a power of two >= %d", p.LineSize, trace.InstrBytes)
		}
	default:
		return fmt.Errorf("replay: sampling plan selects no dimension")
	}
	return nil
}

// SampledResult is one engine's sampled replay outcome.
type SampledResult struct {
	// Measured holds the counters accumulated over measured spans only —
	// Measured.CPIinstr() and Measured.MPI() are the sampled estimates of
	// the full-trace values.
	Measured fetch.Result
	// Estimate extrapolates the miss rate to the full trace with a 95%
	// confidence interval.
	Estimate sampling.Estimate
}

// skips reports whether the plan is skip-mode time sampling with gaps
// between windows: the one plan that never feeds an unmeasured instruction,
// so a source with windows can jump from window to window.
func (p SamplePlan) skips() bool { return p.timeMode() && !p.Warm && p.Window < p.Period }

// SampledChunks replays a sample of the trace src yields through every
// engine in the bank and returns per-engine estimates in bank order. Engines
// are mutated (fed the sample); as with Chunks, pass freshly built engines.
//
// A skip-mode time plan over a source with windows (trace.Windows: in-memory
// runs, a columnar block index, or a checkpointed trace.Seeker) reads only
// the measured windows, each entered with one seek, so the gaps are never
// expanded, decoded or generated: a 1% plan over a 100 GB trace touches ~1 GB of it.
// Every other plan streams each chunk through per-engine state that carries
// across chunks, so results do not depend on how the trace is chunked; the
// degenerate Window == Period plan streams too, because measuring
// everything accumulates one trace-wide cluster.
func SampledChunks(ctx context.Context, src trace.Chunks, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.timeMode() {
		return sampledSet(ctx, src, engines, plan)
	}
	samplers := make([]*timeSampler, len(engines))
	for i, e := range engines {
		samplers[i] = newTimeSampler(e, plan)
	}
	if w, ok := src.(trace.Windows); ok && plan.skips() {
		err := trace.EachWindow(ctx, w, plan.Window, plan.Period, func(spans []trace.Run) {
			for _, s := range samplers {
				s.window(spans)
			}
		})
		if err != nil {
			return nil, err
		}
		for _, s := range samplers {
			s.pos = w.Total()
		}
	} else {
		err := trace.EachChunk(ctx, src, func(runs []trace.Run) error {
			for _, s := range samplers {
				if err := s.feed(ctx, runs); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	results := make([]SampledResult, len(samplers))
	for i, s := range samplers {
		results[i] = s.finish()
	}
	return results, nil
}

// Sampled is SampledChunks over an in-memory run-compacted trace.
func Sampled(ctx context.Context, runs []trace.Run, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	return SampledChunks(ctx, trace.RunChunks(runs), engines, plan)
}

// SampledSeek is SampledChunks over a checkpointed seekable source, which
// generates only the measured windows: O(sampled refs + windows ·
// checkpoint interval) instead of O(n). Plans other than skip-mode time
// sampling would walk the whole trace and are refused.
func SampledSeek(ctx context.Context, src trace.Seeker, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	if !plan.skips() {
		return nil, errors.New("replay: SampledSeek requires skip-mode time sampling with window < period (warm mode must walk skipped spans; use Sampled)")
	}
	return SampledChunks(ctx, trace.SeekChunks(src), engines, plan)
}

// resultDelta subtracts two counter snapshots.
func resultDelta(cur, prev fetch.Result) fetch.Result {
	return fetch.Result{
		Instructions: cur.Instructions - prev.Instructions,
		Misses:       cur.Misses - prev.Misses,
		BufferHits:   cur.BufferHits - prev.BufferHits,
		StallCycles:  cur.StallCycles - prev.StallCycles,
	}
}

// resultAdd accumulates a delta.
func resultAdd(acc, d fetch.Result) fetch.Result {
	acc.Instructions += d.Instructions
	acc.Misses += d.Misses
	acc.BufferHits += d.BufferHits
	acc.StallCycles += d.StallCycles
	return acc
}

// feedSpan issues n sequential fetches starting at start.
func feedSpan(e fetch.Engine, re fetch.RunEngine, start uint64, n int64) {
	if re != nil {
		re.FetchRun(start, n)
		return
	}
	addr := start
	for i := int64(0); i < n; i++ {
		e.Fetch(addr)
		addr += trace.InstrBytes
	}
}

// timeSampler is the time-sampling state machine for one engine, carried
// across arbitrarily chunked feeds: all the state — window phase, open
// snapshot, cluster list — lives here rather than in a loop frame, so one
// slice or one block at a time produce identical results.
type timeSampler struct {
	e    fetch.Engine
	re   fetch.RunEngine
	plan SamplePlan

	measured fetch.Result
	clusters []sampling.Cluster
	prev     fetch.Result
	inWindow bool
	pos      int64 // absolute instruction position
	ri       int   // runs consumed, for context-poll cadence
}

func newTimeSampler(e fetch.Engine, plan SamplePlan) *timeSampler {
	re, _ := e.(fetch.RunEngine)
	return &timeSampler{e: e, re: re, plan: plan}
}

func (s *timeSampler) closeWindow() {
	if !s.inWindow {
		return
	}
	d := resultDelta(s.e.Result(), s.prev)
	s.measured = resultAdd(s.measured, d)
	s.clusters = append(s.clusters, sampling.Cluster{Instructions: d.Instructions, Misses: d.Misses})
	s.inWindow = false
}

// feed advances the sampler over the next chunk of the trace.
func (s *timeSampler) feed(ctx context.Context, runs []trace.Run) error {
	for _, r := range runs {
		if s.ri&(runChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.ri++
		for off := int64(0); off < r.Len; {
			phase := (s.pos + off) % s.plan.Period
			if phase < s.plan.Window {
				seg := s.plan.Window - phase
				if rem := r.Len - off; seg > rem {
					seg = rem
				}
				if !s.inWindow {
					s.prev = s.e.Result()
					s.inWindow = true
				}
				feedSpan(s.e, s.re, r.Start+uint64(off)*trace.InstrBytes, seg)
				off += seg
			} else {
				s.closeWindow()
				seg := s.plan.Period - phase
				if rem := r.Len - off; seg > rem {
					seg = rem
				}
				if s.plan.Warm {
					feedSpan(s.e, s.re, r.Start+uint64(off)*trace.InstrBytes, seg)
				}
				off += seg
			}
		}
		s.pos += r.Len
	}
	return nil
}

// window feeds one measured window's spans as one cluster: the skip-mode
// path over a source with windows, which never sees the gaps.
func (s *timeSampler) window(spans []trace.Run) {
	s.prev = s.e.Result()
	s.inWindow = true
	for _, sp := range spans {
		feedSpan(s.e, s.re, sp.Start, sp.Len)
	}
	s.closeWindow()
}

// finish closes any open window and assembles the result.
func (s *timeSampler) finish() SampledResult {
	s.closeWindow()
	res := SampledResult{Measured: s.measured}
	f := float64(0)
	if s.pos > 0 {
		f = float64(s.measured.Instructions) / float64(s.pos)
	}
	res.Estimate = sampling.EstimateFrom(s.clusters, s.pos, f)
	return res
}

// setFilter incrementally filters a trace down to the sampled congruence
// class, split into setClusters subgroups by the line-address bits just
// above the modulus. Runs arrive in any chunking and the subgroup lists come
// out identical.
type setFilter struct {
	subs     [][]trace.Run
	shift    uint
	modShift uint
	ipl      int64
	mod      uint64
	match    uint64
	total    int64
}

func newSetFilter(plan SamplePlan) *setFilter {
	f := &setFilter{
		subs:  make([][]trace.Run, setClusters),
		ipl:   int64(plan.LineSize / trace.InstrBytes),
		mod:   uint64(plan.SetMod),
		match: uint64(plan.SetMatch),
	}
	for v := plan.LineSize; v > 1; v >>= 1 {
		f.shift++
	}
	for v := plan.SetMod; v > 1; v >>= 1 {
		f.modShift++
	}
	return f
}

// add filters one run into the subgroups.
func (f *setFilter) add(r trace.Run) {
	f.total += r.Len
	first := r.Start >> f.shift
	headOff := int64(r.Start/trace.InstrBytes) & (f.ipl - 1)
	head := f.ipl - headOff
	if head > r.Len {
		head = r.Len
	}
	nlines := int64(1)
	if rem := r.Len - head; rem > 0 {
		nlines += (rem + f.ipl - 1) / f.ipl
	}
	for i := int64((f.match - first) & (f.mod - 1)); i < nlines; i += int64(f.mod) {
		l := first + uint64(i)
		var start uint64
		var cnt int64
		if i == 0 {
			start, cnt = r.Start, head
		} else {
			off := head + (i-1)*f.ipl
			start = r.Start + uint64(off)*trace.InstrBytes
			cnt = r.Len - off
			if cnt > f.ipl {
				cnt = f.ipl
			}
		}
		g := (l >> f.modShift) & (setClusters - 1)
		f.subs[g] = append(f.subs[g], trace.Run{Start: start, Len: cnt, Domain: r.Domain})
	}
}

// sampledSet filters the trace down to the sampled congruence class once,
// shared by the bank, then replays the subgroups through each engine, one
// Result snapshot per subgroup.
func sampledSet(ctx context.Context, src trace.Chunks, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	f := newSetFilter(plan)
	err := trace.EachChunk(ctx, src, func(runs []trace.Run) error {
		for _, r := range runs {
			f.add(r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]SampledResult, len(engines))
	for i, e := range engines {
		clusters := make([]sampling.Cluster, 0, len(f.subs))
		var prev fetch.Result
		for _, sub := range f.subs {
			if err := replayOne(ctx, sub, e); err != nil {
				return nil, err
			}
			cur := e.Result()
			d := resultDelta(cur, prev)
			prev = cur
			clusters = append(clusters, sampling.Cluster{Instructions: d.Instructions, Misses: d.Misses})
		}
		results[i] = SampledResult{
			Measured: e.Result(),
			Estimate: sampling.EstimateFrom(clusters, f.total, 1/float64(plan.SetMod)),
		}
	}
	return results, nil
}
