package synth

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// checkStoreInvariants asserts the store's internal accounting under its
// own mutex: no entry's refcount is negative, idleBytes is non-negative
// and equals the summed entryBytes of exactly the idle (refcount 0)
// entries, over-budget verdicts included.
func checkStoreInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var idle int64
	for key, e := range s.entries {
		if e.refcount < 0 {
			t.Errorf("entry %v: negative refcount %d", key.n, e.refcount)
		}
		select {
		case <-e.ready:
		default:
			continue // still generating: not yet accounted
		}
		if e.refcount == 0 {
			idle += entryBytes(e)
		}
	}
	if s.idleBytes < 0 {
		t.Errorf("idleBytes = %d, negative", s.idleBytes)
	}
	if s.idleBytes != idle {
		t.Errorf("idleBytes = %d, but idle entries sum to %d", s.idleBytes, idle)
	}
	if s.idleBytes > s.idleBudget {
		t.Errorf("idleBytes = %d exceeds budget %d after eviction", s.idleBytes, s.idleBudget)
	}
}

// TestStoreStressInvariants hammers one store from many goroutines mixing
// every acquisition path — Instr, RunsOnly, Columnar, over-budget verdicts,
// InstrCtx (some cancelled), Source, double releases — and asserts, under
// -race, that the ref-count and idle-byte bookkeeping never goes negative
// and fully drains at the end.
func TestStoreStressInvariants(t *testing.T) {
	profs := IBSMach()[:3]
	// Budget sized so entries churn: a few traces fit idle, most evict.
	const n = 2_000
	store := NewStoreLimits(3*RunBytes(n), RunBytes(4*n))
	if err := store.SetSpillDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer store.Purge()

	const goroutines = 12
	const iters = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				prof := profs[(g+i)%len(profs)]
				size := int64(n + (g+i)%5*500) // several distinct keys per profile
				switch (g + i) % 5 {
				case 0:
					refs, release, err := store.Instr(prof, 1, size)
					if err != nil {
						t.Errorf("Instr: %v", err)
						return
					}
					if int64(len(refs)) != size {
						t.Errorf("Instr returned %d refs, want %d", len(refs), size)
					}
					release()
					release() // double release must be a no-op
				case 1:
					ctx := context.Background()
					switch i % 3 {
					case 0:
						runs, release, err := store.RunsOnly(ctx, prof, 1, size)
						if err != nil {
							t.Errorf("RunsOnly: %v", err)
							return
						}
						if len(runs) == 0 {
							t.Error("RunsOnly returned no runs")
						}
						release()
					case 1:
						cf, release, err := store.Columnar(ctx, prof, 1, size)
						if err != nil {
							t.Errorf("Columnar: %v", err)
							return
						}
						if cf.Refs() != size {
							t.Errorf("Columnar file holds %d refs, want %d", cf.Refs(), size)
						}
						release()
					case 2:
						// Runs far over the hard budget: built once, then
						// served from the verdict until the idle LRU drops it.
						if _, _, err := store.RunsOnly(ctx, prof, 1, 200_000); !errors.Is(err, ErrOverBudget) {
							t.Errorf("oversized RunsOnly = %v, want ErrOverBudget", err)
						}
					}
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					if (g+i)%2 == 0 {
						cancel() // cancelled before the call: must not leak a refcount
					}
					refs, release, err := store.InstrCtx(ctx, prof, 1, size)
					if err == nil {
						if int64(len(refs)) != size {
							t.Errorf("InstrCtx returned %d refs, want %d", len(refs), size)
						}
						release()
					} else if !errors.Is(err, context.Canceled) {
						t.Errorf("InstrCtx: %v", err)
					}
					cancel()
				case 3:
					src, release, err := store.Source(prof, 1, size)
					if err != nil {
						t.Errorf("Source: %v", err)
						return
					}
					for j := 0; j < 64; j++ { // partial drain, then walk away
						if _, ok := src.Next(); !ok {
							break
						}
					}
					release()
				case 4:
					// Over the hard budget: typed rejection, no residue.
					_, _, err := store.Instr(prof, 1, 64_000)
					if !errors.Is(err, ErrOverBudget) {
						t.Errorf("oversized Instr = %v, want ErrOverBudget", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	checkStoreInvariants(t, store)

	// Every handle was released: nothing in the store is still referenced,
	// and re-running the accounting from scratch agrees.
	store.mu.Lock()
	for key, e := range store.entries {
		if e.refcount != 0 {
			t.Errorf("entry n=%d: refcount %d after full drain, want 0", key.n, e.refcount)
		}
	}
	store.mu.Unlock()

	if st := store.Stats(); st.Hits+st.Misses == 0 {
		t.Error("stress run recorded no store activity")
	}
}

// TestStoreStressEvictionChurn drives the idle cache through heavy
// eviction churn (budget fits ~1 entry) while checking invariants at
// barriers between waves.
func TestStoreStressEvictionChurn(t *testing.T) {
	prof := IBSMach()[0]
	const n = 1_000
	store := NewStore(n*refBytes + 1) // roughly one idle trace

	for wave := 0; wave < 8; wave++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				size := int64(n + 100*g) // 8 distinct keys fighting for one slot
				refs, release, err := store.Instr(prof, uint64(wave), size)
				if err != nil {
					t.Errorf("wave %d: %v", wave, err)
					return
				}
				if int64(len(refs)) != size {
					t.Errorf("wave %d: %d refs, want %d", wave, len(refs), size)
				}
				release()
			}(g)
		}
		wg.Wait()
		checkStoreInvariants(t, store)
	}
	if st := store.Stats(); st.Evictions == 0 {
		t.Error("churn run evicted nothing; budget not exercised")
	}
}
