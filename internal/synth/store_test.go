package synth

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ibsim/internal/crashfs"
	"ibsim/internal/trace"
)

func TestStoreMemoizesAndMatchesInstrTrace(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	want, err := InstrTrace(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	refs, release, err := s.Instr(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(want) {
		t.Fatalf("store trace has %d refs, InstrTrace %d", len(refs), len(want))
	}
	for i := range refs {
		if refs[i] != want[i] {
			t.Fatalf("ref %d: store %v != InstrTrace %v", i, refs[i], want[i])
		}
	}
	again, release2, err := s.Instr(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &refs[0] {
		t.Fatal("second acquire did not return the memoized slice")
	}
	release()
	release2()
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.IdleBytes != int64(len(refs))*refBytes {
		t.Fatalf("idle bytes %d, want %d", st.IdleBytes, int64(len(refs))*refBytes)
	}
	// A released entry must still be served from cache.
	_, release3, err := s.Instr(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	release3()
	if got := s.Stats().Hits; got != 2 {
		t.Fatalf("hits after re-acquire = %d, want 2", got)
	}
}

func TestStoreDistinguishesKeys(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	q, err := Lookup("sdet")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	for _, k := range []struct {
		prof Profile
		seed uint64
		n    int64
	}{{p, 0, 1000}, {p, 1, 1000}, {p, 0, 2000}, {q, 0, 1000}} {
		_, release, err := s.Instr(k.prof, k.seed, k.n)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	st := s.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 distinct generations", st)
	}
}

func TestStoreEvictsIdleBeyondBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits one 1000-ref trace but not two.
	s := NewStore(1500 * refBytes)
	_, r1, err := s.Instr(p, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r1()
	_, r2, err := s.Instr(p, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2() // seed-1 entry is older → evicted
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 eviction leaving 1 entry", st)
	}
	// Held entries are never evicted, no matter the budget.
	tiny := NewStore(0)
	refs, hold, err := tiny.Instr(p, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1000 {
		t.Fatalf("got %d refs", len(refs))
	}
	if tiny.Stats().Entries != 1 {
		t.Fatal("held entry missing from store")
	}
	hold()
	if tiny.Stats().Entries != 0 {
		t.Fatal("zero-budget store kept a released entry")
	}
	// Double release is a no-op.
	hold()
}

func TestStoreHardBudgetRejectsMaterialization(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 1000*refBytes)
	if _, _, err := s.Instr(p, 0, 2000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Instr over budget = %v, want ErrOverBudget", err)
	}
	// At or under the budget still materializes.
	refs, release, err := s.Instr(p, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1000 {
		t.Fatalf("got %d refs", len(refs))
	}
	release()
}

func TestStoreSourceFallsBackToStreaming(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	want, err := InstrTrace(p, 7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 1000*refBytes)
	src, release, err := s.Source(p, 7, 3000)
	if err != nil {
		t.Fatalf("Source over budget should stream, got %v", err)
	}
	got, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if len(got) != len(want) {
		t.Fatalf("streamed %d refs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d: streamed %v != InstrTrace %v", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.Entries != 0 {
		t.Fatalf("streaming fallback left %d store entries", st.Entries)
	}

	// Within budget too, Source streams: it never materializes the refs.
	src2, release2, err := s.Source(p, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Collect(src2); err != nil {
		t.Fatal(err)
	}
	release2()
	if st := s.Stats(); st.Fallbacks != 2 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want an in-budget Source streamed too", st)
	}
}

func TestStoreInstrCtxCancellation(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)

	// Already-cancelled context fails fast without generating anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.InstrCtx(ctx, p, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled InstrCtx = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cancelled acquire touched the store: %+v", st)
	}

	// A waiter abandoning an in-flight generation must not corrupt the
	// entry for the generating caller or later acquires.
	gate := make(chan struct{})
	started := make(chan struct{})
	var genErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		refs, release, err := s.Instr(p, 9, 200000)
		genErr = err
		if err == nil {
			if len(refs) != 200000 {
				genErr = errors.New("generator got short trace")
			}
			release()
		}
		close(gate)
	}()
	<-started
	wctx, wcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer wcancel()
	_, _, werr := s.InstrCtx(wctx, p, 9, 200000)
	// Either the generation finished inside the deadline (fine) or the
	// waiter bailed with the context error.
	if werr != nil && !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("abandoning waiter = %v", werr)
	}
	<-gate
	wg.Wait()
	if genErr != nil {
		t.Fatalf("generating caller failed: %v", genErr)
	}
	// The entry must still be intact and servable.
	refs, release, err := s.Instr(p, 9, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 200000 {
		t.Fatalf("post-abandon acquire got %d refs", len(refs))
	}
	release()
}

func TestStoreConcurrentAcquireSharesOneGeneration(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	const goroutines = 8
	var wg sync.WaitGroup
	firsts := make([]*trace.Ref, goroutines)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			refs, release, err := s.Instr(p, 0, 20000)
			if err != nil {
				t.Error(err)
				return
			}
			firsts[i] = &refs[0]
			release()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if firsts[i] != firsts[0] {
			t.Fatalf("goroutine %d got a different backing array", i)
		}
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 generation", st)
	}
}

func TestStoreInstrRuns(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	refs, runs, release, err := s.InstrRuns(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Compact(refs)
	if len(runs) != len(want) {
		t.Fatalf("store compaction has %d runs, trace.Compact %d", len(runs), len(want))
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("run %d: store %+v != Compact %+v", i, runs[i], want[i])
		}
	}
	// A second acquire shares the memoized refs.
	refs2, _, release2, err := s.InstrRuns(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &refs2[0] != &refs[0] {
		t.Fatal("second InstrRuns did not return the memoized refs")
	}
	// Plain Instr on the same key shares the entry too.
	refs3, release3, err := s.Instr(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &refs3[0] != &refs[0] {
		t.Fatal("Instr after InstrRuns did not share the entry")
	}
	release()
	release2()
	release3()
	// The compaction is the caller's: the store retains only the refs.
	if got, want := s.Stats().IdleBytes, int64(len(refs))*refBytes; got != want {
		t.Fatalf("idle bytes %d, want %d (refs only)", got, want)
	}
}

func TestStoreInstrRunsHardBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	// InstrRuns admits exactly what Instr admits: the refs are all it holds.
	s := NewStoreLimits(DefaultIdleBudget, 5000*refBytes)
	if _, _, _, err := s.InstrRuns(context.Background(), p, 0, 5001); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	_, runs, release, err := s.InstrRuns(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatalf("InstrRuns within the refs budget failed: %v", err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs")
	}
	release()
}

func TestStoreInstrRunsConcurrent(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	const workers = 8
	got := make([][]trace.Run, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, runs, release, err := s.InstrRuns(context.Background(), p, 3, 4000)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = runs
			release()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("worker %d got a different compaction", w)
		}
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 generation", st)
	}
}

func TestStoreRunsOnlyMatchesCompact(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	runs, release, err := s.RunsOnly(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := InstrTrace(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Compact(refs)
	if len(runs) != len(want) {
		t.Fatalf("RunsOnly has %d runs, trace.Compact %d", len(runs), len(want))
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("run %d: %+v != %+v", i, runs[i], want[i])
		}
	}
	// Second acquire shares the memoized slice.
	runs2, release2, err := s.RunsOnly(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &runs2[0] != &runs[0] {
		t.Fatal("second RunsOnly did not share the entry")
	}
	release()
	release2()
	if got, want := s.Stats().IdleBytes, int64(len(runs))*runBytes; got != want {
		t.Fatalf("idle bytes %d, want %d (runs only, no refs)", got, want)
	}
}

func TestStoreRunsOnlyFitsWhereRefsDoNot(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	// Budget far below the refs footprint but comfortably above the actual
	// compaction (sequential fetch compacts ~10x; runBytes ~1.5x refBytes).
	s := NewStoreLimits(DefaultIdleBudget, n*refBytes/2)
	if _, _, err := s.Instr(p, 0, n); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Instr err = %v, want ErrOverBudget", err)
	}
	runs, release, err := s.RunsOnly(context.Background(), p, 0, n)
	if err != nil {
		t.Fatalf("RunsOnly under the same budget failed: %v", err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs")
	}
	release()
}

func TestStoreRunsOnlyOverBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 10*runBytes)
	if _, _, err := s.RunsOnly(context.Background(), p, 0, 50_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	// The failed entry must not linger as a trace.
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("failed RunsOnly left %d entries", st.Entries)
	}
	// The verdict is remembered: a repeat fails at once, as a hit, without
	// generating again.
	before := s.Stats()
	if _, _, err := s.RunsOnly(context.Background(), p, 0, 50_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("repeat err = %v, want ErrOverBudget", err)
	}
	if st := s.Stats(); st.Misses != before.Misses || st.Hits != before.Hits+1 || st.Entries != 0 {
		t.Fatalf("repeat stats = %+v after %+v, want one more hit and no miss", st, before)
	}
	// Purge drops the verdict, so the next request generates again.
	s.Purge()
	if _, _, err := s.RunsOnly(context.Background(), p, 0, 50_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("post-purge err = %v, want ErrOverBudget", err)
	}
	if st := s.Stats(); st.Misses != before.Misses+1 {
		t.Fatalf("post-purge stats = %+v, want a fresh miss", st)
	}
}

// Verdicts are idle entries like any other: an idle budget too small for
// one evicts it at release, so a repeat generates again.
func TestStoreVerdictEvictedByIdleBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(verdictBytes-1, 10*runBytes)
	for i := 1; i <= 2; i++ {
		if _, _, err := s.RunsOnly(context.Background(), p, 0, 50_000); !errors.Is(err, ErrOverBudget) {
			t.Fatalf("attempt %d: err = %v, want ErrOverBudget", i, err)
		}
		if st := s.Stats(); st.Misses != int64(i) || st.Evictions != int64(i) || st.IdleBytes != 0 {
			t.Fatalf("attempt %d: stats = %+v, want the verdict evicted", i, st)
		}
	}
}

// Only ErrOverBudget is deterministic for a key: a build that fails any
// other way — cancelled, or an I/O error — is forgotten, and the next
// acquire builds again.
func TestStoreForgetsOtherFailures(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	key := keyFor(p, 0, 1000, formRuns)
	builds := 0
	for _, fail := range []error{context.Canceled, fmt.Errorf("wrapped: %w", context.DeadlineExceeded), errors.New("i/o")} {
		for i := 0; i < 2; i++ {
			_, _, err := s.acquire(context.Background(), key, func() (payload, error) {
				builds++
				return payload{}, fail
			})
			if !errors.Is(err, fail) {
				t.Fatalf("acquire err = %v, want %v", err, fail)
			}
		}
	}
	if st := s.Stats(); builds != 6 || st.Misses != 6 || st.Hits != 0 || len(s.entries) != 0 {
		t.Fatalf("%d builds, stats %+v, %d entries: want every failure rebuilt and none kept", builds, st, len(s.entries))
	}

	// A spill that fails on I/O is retried.
	fsys := &failFS{FS: crashfs.OS(), fail: true}
	s.SetSpillFS(fsys)
	if err := s.SetSpillDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := s.Columnar(context.Background(), p, 0, 1000); err == nil || errors.Is(err, ErrOverBudget) {
			t.Fatalf("attempt %d: Columnar err = %v, want the injected I/O error", i, err)
		}
		if fsys.creates != i {
			t.Fatalf("attempt %d: %d temp files created, want a retry each time", i, fsys.creates)
		}
	}
}

// A columnar spill over the hard budget is remembered: the repeat creates
// no temp file and counts no miss.
func TestStoreColumnarVerdict(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 64)
	fsys := &failFS{FS: crashfs.OS()}
	s.SetSpillFS(fsys)
	if err := s.SetSpillDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := s.Columnar(context.Background(), p, 0, 50_000); !errors.Is(err, ErrOverBudget) {
			t.Fatalf("attempt %d: err = %v, want ErrOverBudget", i, err)
		}
	}
	if st := s.Stats(); fsys.creates != 1 || st.Misses != 1 || st.Hits != 1 || st.Spills != 0 {
		t.Fatalf("%d temp files, stats %+v: want one spill attempt, then a hit on the verdict", fsys.creates, st)
	}
}

// failFS counts the spill temp files a store creates, failing each
// creation while fail is set.
type failFS struct {
	crashfs.FS
	fail    bool
	creates int
}

func (f *failFS) CreateTemp(dir, pattern string) (crashfs.File, error) {
	f.creates++
	if f.fail {
		return nil, errors.New("injected create failure")
	}
	return f.FS.CreateTemp(dir, pattern)
}

func TestStoreRunsOnlyCancellation(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.RunsOnly(ctx, p, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
