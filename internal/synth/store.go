package synth

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"ibsim/internal/crashfs"
	"ibsim/internal/trace"
)

// ErrOverBudget reports a request to materialize a trace larger than the
// store's hard memory budget. Callers that can consume a stream should fall
// back to Source, which regenerates over budget in O(1) memory.
var ErrOverBudget = errors.New("synth: trace exceeds store hard memory budget")

// DefaultIdleBudget bounds the bytes the default Store keeps alive for
// traces no caller currently holds: roughly two full experiment suites at
// the default 2M-instruction scale.
const DefaultIdleBudget = 1 << 30

// DefaultStore is the process-wide trace store shared by the experiment
// suite, the verification harness, and the CLIs, so each (workload, seed, n)
// trace is generated once per process instead of once per experiment.
var DefaultStore = NewStore(DefaultIdleBudget)

// storeForm is the form a store entry holds a trace in. Each form is its
// own key space, so a budget admitting one form never aliases an entry
// holding another.
type storeForm uint8

const (
	formRefs        storeForm = iota // the per-reference slice (Instr)
	formRuns                         // the run-length compaction only (RunsOnly)
	formColumnar                     // an on-disk columnar file (Columnar, columnar.go)
	formCheckpoints                  // a checkpoint index for (prof, seed), n always 0 (seek.go)
)

// storeKey identifies one memoized trace form. The full Profile value
// (comparable: scalars and fixed-size arrays only) participates so
// same-named variants — e.g. the Mach and Ultrix builds of an IBS workload,
// or a caller-tweaked profile — never alias each other's traces.
type storeKey struct {
	prof Profile
	seed uint64
	n    int64
	form storeForm
}

// keyFor returns the key of prof's (seed, n) trace in form. Every form is
// instruction-only and InstrTrace zeroes the data profile, so profiles
// differing only there yield the same stream: normalize to share the entry.
func keyFor(prof Profile, seed uint64, n int64, form storeForm) storeKey {
	prof.Data = DataProfile{}
	return storeKey{prof: prof, seed: seed, n: n, form: form}
}

// payload is what an entry holds, in its key's form. Columnar entries live
// on disk: cf is the opened file, path its location, fileBytes its on-disk
// size (what the budgets charge — the live-memory cost is one mmap'd
// block). A checkpoint index's bytes only change while some holder's
// generator appends to it, i.e. while refcount > 0, so the idle accounting
// at the 0-transition stays exact.
type payload struct {
	refs      []trace.Ref
	runs      []trace.Run
	cf        *trace.ColumnarFile
	path      string
	fileBytes int64
	ckix      *CheckpointIndex
}

// storeEntry is one memoized trace form, or over-budget verdict, with its
// reference count.
type storeEntry struct {
	ready chan struct{} // closed once payload/err are set (under the store mutex)
	payload
	// err is the build's failure. An ErrOverBudget entry outlives its
	// holders as a verdict (see acquire); any other failure is dropped by
	// its last release.
	err error

	refcount int
	lastUse  int64 // store tick of the most recent acquire/release
}

// verdictBytes is what an idle over-budget verdict is charged: about the
// key, map slot and entry it occupies, so the idle LRU ages verdicts out
// like any other entry.
const verdictBytes = 1 << 10

// entryBytes is the retained size of an entry: its in-memory trace, the
// on-disk file size for columnar entries, the index for checkpoint entries,
// or verdictBytes for a verdict. Callers hold the store mutex.
func entryBytes(e *storeEntry) int64 {
	if e.err != nil {
		return verdictBytes
	}
	b := int64(len(e.refs))*refBytes + int64(len(e.runs))*runBytes + e.fileBytes
	if e.ckix != nil {
		b += e.ckix.Bytes()
	}
	return b
}

// dropEntry releases an entry's out-of-heap resources: columnar entries
// close their mapping and delete their backing file (through the store's
// spill filesystem, so the torture harness sees the delete too). In-memory
// entries are garbage collected and need nothing. Callers hold the store
// mutex.
func (s *Store) dropEntry(e *storeEntry) {
	if e.cf != nil {
		e.cf.Close()
		e.cf = nil
	}
	if e.path != "" {
		fsys := s.fsys
		if fsys == nil {
			fsys = crashfs.OS()
		}
		fsys.Remove(e.path)
		e.path = ""
	}
}

// Stats reports store activity; Idle is the byte count held only by the
// memoization cache (no outstanding handle). Fallbacks counts Source
// requests, each served by streaming regeneration. A repeated request for a
// key whose trace was over the hard budget is a Hit on the remembered
// verdict.
type Stats struct {
	Hits, Misses, Evictions int64
	Fallbacks               int64
	// Spills counts columnar traces generated to disk (cache misses on the
	// Columnar tier); SpillBytes is their current total on-disk footprint.
	Spills     int64
	SpillBytes int64
	IdleBytes  int64
	// Entries counts memoized trace entries (refs, runs, columnar); it
	// leaves out over-budget verdicts, which hold no trace. Checkpoint
	// indexes — metadata about traces, not traces — are reported
	// separately as CheckpointEntries/CheckpointBytes/Checkpoints.
	Entries           int
	CheckpointEntries int
	CheckpointBytes   int64
	Checkpoints       int64 // total restore points across all indexes
}

// Store memoizes materialized instruction traces keyed by
// (profile, seed, instruction count, form). Entries are ref-counted: Instr,
// RunsOnly and Columnar return the trace together with a release function,
// and a released entry stays cached — up to the idle-byte budget, evicting
// least-recently used idle entries beyond it — so sequential experiments
// over the same suite reuse each other's generation work. A key whose trace
// was over the hard budget is remembered the same way, as a verdict.
//
// The returned slice is shared by every holder of the same key and MUST be
// treated as read-only.
type Store struct {
	mu         sync.Mutex
	entries    map[storeKey]*storeEntry
	idleBudget int64
	hardBudget int64 // 0 = unlimited
	idleBytes  int64
	tick       int64
	stats      Stats
	dir        string     // lazily created spill directory for columnar files
	dirOwned   bool       // dir was MkdirTemp'd by the store (Purge may remove it)
	fsys       crashfs.FS // spill-file I/O; nil = the real OS (see SetSpillFS)
	spillSeq   int64      // publication counter for trace-<seq>.ibsc names

	// ckEvery is the recording interval for new checkpoint indexes
	// (0 = DefaultCheckpointEvery); spillWorkers > 1 enables the parallel
	// columnar spill path (see seek.go, spill.go).
	ckEvery      int64
	spillWorkers int
}

// NewStore returns an empty store keeping at most idleBudget bytes of
// unreferenced traces cached (0 caches nothing once released) and no hard
// materialization limit.
func NewStore(idleBudget int64) *Store {
	return NewStoreLimits(idleBudget, 0)
}

// NewStoreLimits returns a store with both an idle-cache budget and a hard
// per-trace materialization budget: a request whose trace would retain more
// than hardBudget bytes fails with ErrOverBudget instead of holding it, and
// the caller can fall back to streaming regeneration (Source, SeekSource).
// hardBudget 0 means unlimited.
func NewStoreLimits(idleBudget, hardBudget int64) *Store {
	return &Store{entries: make(map[storeKey]*storeEntry), idleBudget: idleBudget, hardBudget: hardBudget}
}

// refBytes is the retained size of one trace.Ref (16 bytes with padding);
// runBytes that of one trace.Run (24 bytes with padding).
const (
	refBytes = 16
	runBytes = 24
)

// RunBytes bounds the bytes a store retains for one n-instruction trace in
// the run form RunsOnly serves: the worst case of one run per instruction.
// Admission control (cmd/ibsimd's weighted limiter) weighs a request by it
// before committing to the work.
func RunBytes(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return n * runBytes
}

// Instr returns prof's instruction-only trace for (seed, n) — the same
// stream InstrTrace generates — memoized across callers. The release
// function must be called exactly once when the caller is done with the
// slice; it is safe to call from any goroutine. Concurrent acquires of the
// same key share one generation.
func (s *Store) Instr(prof Profile, seed uint64, n int64) ([]trace.Ref, func(), error) {
	return s.InstrCtx(context.Background(), prof, seed, n)
}

// InstrCtx is Instr honoring ctx: a caller waiting on another goroutine's
// in-flight generation returns ctx.Err() as soon as ctx is done, instead of
// blocking to completion (see acquire).
func (s *Store) InstrCtx(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Ref, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.hardBudget > 0 && n*refBytes > s.hardBudget {
		return nil, nil, fmt.Errorf("%w: %d refs need %d bytes, budget %d",
			ErrOverBudget, n, n*refBytes, s.hardBudget)
	}
	e, release, err := s.acquire(ctx, keyFor(prof, seed, n, formRefs), func() (payload, error) {
		refs, err := s.instrTrace(prof, seed, n)
		return payload{refs: refs}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.refs, release, nil
}

// InstrRuns returns InstrCtx's memoized trace together with its run-length
// compaction (trace.Compact), computed afresh on every call and owned by the
// caller; the refs are covered by the release function and MUST be treated
// as read-only. It is not memoized: code that wants runs acquires RunsOnly.
// It stays because the benchmark harness (ibsbench) times it.
func (s *Store) InstrRuns(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Ref, []trace.Run, func(), error) {
	refs, release, err := s.InstrCtx(ctx, prof, seed, n)
	if err != nil {
		return nil, nil, nil, err
	}
	return refs, trace.Compact(refs), release, nil
}

// RunsOnly returns prof's run-length-compacted instruction trace for
// (seed, n) WITHOUT materializing the per-reference stream: generation
// streams through an incremental trace.Compactor, so peak memory is O(runs)
// — typically a few percent of the refs (instruction fetch is overwhelmingly
// sequential). It is the trace form the exhibits and ibsimd's first exact
// tier read: a trace whose refs exceed the hard budget usually still fits as
// runs. Unlike Instr, the hard budget is enforced against the ACTUAL
// compacted size as it grows, not a worst-case estimate; a pathologically
// non-sequential stream aborts with ErrOverBudget mid-generation. The slice
// is shared and read-only; the release function must be called exactly
// once.
func (s *Store) RunsOnly(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Run, func(), error) {
	e, release, err := s.acquire(ctx, keyFor(prof, seed, n, formRuns), func() (payload, error) {
		runs, err := s.compactStream(prof, seed, n)
		return payload{runs: runs}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.runs, release, nil
}

// acquire is the store's one memo path: it returns key's entry with a
// reference held, building it with build on a miss. Concurrent acquires of
// the same key share one build. A hit waits for an in-flight build unless
// ctx is done first; the abandoned wait drops its reference (the building
// caller holds its own until the entry is ready, so this cannot free an
// unfinished entry), and the build itself runs on for whoever still wants
// it. A failed build is dropped by its last release — except ErrOverBudget:
// the hard budget is fixed and generation deterministic, so the same key
// always fails the same way, and the entry stays behind as a verdict that
// fails every repeat at once, as a Hit, until the idle LRU or Purge drops
// it.
func (s *Store) acquire(ctx context.Context, key storeKey, build func() (payload, error)) (*storeEntry, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
		s.pinLocked(e)
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			s.release(key, e)
			return nil, nil, ctx.Err()
		}
	} else {
		s.stats.Misses++
		e = &storeEntry{ready: make(chan struct{})}
		s.pinLocked(e)
		s.entries[key] = e
		s.mu.Unlock()
		p, err := build()
		s.mu.Lock()
		e.payload, e.err = p, err
		s.mu.Unlock()
		close(e.ready)
	}
	if e.err != nil {
		s.release(key, e)
		return nil, nil, e.err
	}
	return e, s.releaseOnce(key, e), nil
}

// pinLocked takes a reference on e, moving its bytes out of the idle cache
// (they are accounted to the holder) on the 0 → 1 transition. Callers hold
// the store mutex.
func (s *Store) pinLocked(e *storeEntry) {
	if e.refcount == 0 {
		s.idleBytes -= entryBytes(e)
	}
	e.refcount++
	s.tick++
	e.lastUse = s.tick
}

// budgetCheckMask sets how often compactStream re-checks the growing
// compaction against the hard budget (every 4K instructions).
const budgetCheckMask = 1<<12 - 1

// instrTrace is InstrTrace through a store-attached generator: the pass
// registers checkpoints in the shared index as it materializes, so the
// bytes spent generating also buy O(interval) seeks for every later pass.
func (s *Store) instrTrace(prof Profile, seed uint64, n int64) ([]trace.Ref, error) {
	g, done, err := s.seekGen(prof, seed)
	if err != nil {
		return nil, err
	}
	defer done()
	out := make([]trace.Ref, n)
	for i := range out {
		out[i], _ = g.Next()
	}
	return out, nil
}

// compactStream generates prof's instruction stream and compacts it on the
// fly, enforcing the store's hard budget against the runs actually retained.
// It registers checkpoints in the store's shared index as it streams, and
// resumes from the longest memoized runs-only prefix of the same workload
// (seeking the generator past it) instead of recompacting from zero.
func (s *Store) compactStream(prof Profile, seed uint64, n int64) ([]trace.Run, error) {
	g, done, err := s.seekGen(prof, seed)
	if err != nil {
		return nil, err
	}
	defer done()
	var c trace.Compactor
	if prefix, start := s.runsPrefix(prof, seed, n); start > 0 {
		c.Resume(prefix)
		if err := g.SeekTo(start); err != nil {
			return nil, err
		}
	}
	for g.Instructions() < n {
		r, _ := g.Next()
		c.Add(r)
		if g.Instructions()&budgetCheckMask == 0 && s.hardBudget > 0 && int64(c.Len())*runBytes > s.hardBudget {
			return nil, fmt.Errorf("%w: run compaction of %d instructions already needs over %d bytes",
				ErrOverBudget, n, s.hardBudget)
		}
	}
	runs := c.Finish()
	if s.hardBudget > 0 && int64(len(runs))*runBytes > s.hardBudget {
		return nil, fmt.Errorf("%w: %d runs need %d bytes, budget %d",
			ErrOverBudget, len(runs), int64(len(runs))*runBytes, s.hardBudget)
	}
	// Retain exactly len(runs): the entry is held for the store's lifetime
	// and accounted at runBytes per run, while the compactor's append-grown
	// buffer carries up to double that in spare capacity.
	return append([]trace.Run(nil), runs...), nil
}

// Source returns a streaming trace.Source over prof's instruction stream
// for (seed, n): a SeekSource regenerating in O(1) memory, which never
// fails the hard budget. Each call counts in Stats.Fallbacks. The release
// function must be called exactly once when the caller is done reading.
func (s *Store) Source(prof Profile, seed uint64, n int64) (trace.Source, func(), error) {
	ss, done, err := s.SeekSource(prof, seed, n)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.stats.Fallbacks++
	s.mu.Unlock()
	return ss, done, nil
}

// releaseOnce wraps release so double-calling a handle's release is a no-op.
func (s *Store) releaseOnce(key storeKey, e *storeEntry) func() {
	var once sync.Once
	return func() { once.Do(func() { s.release(key, e) }) }
}

// release drops one reference; the last holder moves the entry — or an
// over-budget verdict — into the idle cache, and any other failed entry out
// of the store.
func (s *Store) release(key storeKey, e *storeEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.refcount--
	if e.refcount > 0 {
		return
	}
	if e.err != nil && !errors.Is(e.err, ErrOverBudget) {
		// A failed generation may already have been replaced by a fresh
		// attempt under the same key; only remove this entry.
		if cur, ok := s.entries[key]; ok && cur == e {
			delete(s.entries, key)
		}
		s.dropEntry(e)
		return
	}
	s.tick++
	e.lastUse = s.tick
	if e.cf != nil {
		// An idle spill file stays mapped but off the resident set, so the
		// process's RSS counts only the files some caller is reading.
		e.cf.DropResident()
	}
	s.idleBytes += entryBytes(e)
	s.evictLocked()
}

// evictLocked removes least-recently-used idle entries until the idle bytes
// fit the budget.
func (s *Store) evictLocked() {
	for s.idleBytes > s.idleBudget {
		var victimKey storeKey
		var victim *storeEntry
		for k, e := range s.entries {
			if e.refcount != 0 || entryBytes(e) == 0 {
				// Zero-byte entries (e.g. still-empty checkpoint indexes)
				// free nothing; evicting them would only spin the loop.
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		s.idleBytes -= entryBytes(victim)
		delete(s.entries, victimKey)
		s.dropEntry(victim)
		s.stats.Evictions++
	}
}

// Purge drops every idle entry — in-memory and on-disk — regardless of the
// idle budget, and removes the store's spill directory if the store created
// it (a throwaway temp dir) and it is now empty; a directory configured via
// SetSpillDir belongs to the caller and is left in place. Entries still
// referenced by an outstanding handle are untouched. Intended for orderly
// shutdown (cmd/ibsimd) and tests; the store remains usable.
func (s *Store) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.entries {
		if e.refcount != 0 {
			continue
		}
		s.idleBytes -= entryBytes(e)
		delete(s.entries, k)
		s.dropEntry(e)
		s.stats.Evictions++
	}
	if s.dir != "" && s.dirOwned {
		if err := os.Remove(s.dir); err == nil {
			s.dir = ""
			s.dirOwned = false
		}
	}
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.IdleBytes = s.idleBytes
	for k, e := range s.entries {
		st.SpillBytes += e.fileBytes
		if k.form == formCheckpoints {
			st.CheckpointEntries++
			if e.ckix != nil {
				cst := e.ckix.Stats()
				st.CheckpointBytes += cst.Bytes
				st.Checkpoints += int64(cst.Count)
			}
			continue
		}
		if e.err == nil {
			st.Entries++
		}
	}
	return st
}
