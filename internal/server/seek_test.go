package server

import (
	"reflect"
	"strings"
	"testing"

	"ibsim/internal/crashfs"
	"ibsim/internal/synth"
)

// An explicit skip-mode time-sampling request against a store too small for
// even the columnar file is served by the checkpoint-seek streaming tier:
// the sampling ask is honored exactly as specified (not degraded), and the
// numbers are bit-identical to the same request against an unlimited store,
// because RunSeek/SampledSeek are bit-identical to the run-materialized
// sampled paths. A warm spec at the same budget cannot seek and still falls
// to the exact streaming rung, degraded.
func TestSeekTierServesExplicitSkipSampling(t *testing.T) {
	sreq := SweepRequest{Workload: "eqntott", Instructions: 100_000, LineSize: 32,
		Cells:    []CellSpec{{Sets: 256, Assoc: 1}, {Sets: 1024, Assoc: 1}},
		Sampling: &SamplingSpec{Window: 1000, Period: 8000, Skip: true}}
	rreq := ReplayRequest{Workload: "eqntott", Instructions: 100_000,
		Engines:  []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}},
		Sampling: &SamplingSpec{Window: 1000, Period: 8000, Skip: true}}

	_, ref := testServer(t, nil) // unlimited store: the run-materialized oracle
	var wantSweep SweepResponse
	if code, raw := postJSON(t, ref.URL+"/v1/sweep", sreq, &wantSweep); code != 200 {
		t.Fatalf("reference sweep = %d: %s", code, raw)
	}
	var wantReplay ReplayResponse
	if code, raw := postJSON(t, ref.URL+"/v1/replay", rreq, &wantReplay); code != 200 {
		t.Fatalf("reference replay = %d: %s", code, raw)
	}

	spills := &spillCounter{FS: crashfs.OS()}
	s, ts := testServer(t, func(c *Config) {
		c.Store = synth.NewStoreLimits(1<<26, 1<<10) // rejects refs, runs, and columnar
		c.Store.SetSpillFS(spills)
	})
	var sresp SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", sreq, &sresp); code != 200 {
		t.Fatalf("sweep = %d: %s", code, raw)
	}
	// The replay reads the same trace: the store remembers that its runs
	// and columnar file were over budget, so the replay goes straight to
	// the seek tier, generating and spilling nothing on the way.
	before, created := s.store.Stats(), spills.creates.Load()
	var rresp ReplayResponse
	if code, raw := postJSON(t, ts.URL+"/v1/replay", rreq, &rresp); code != 200 {
		t.Fatalf("replay = %d: %s", code, raw)
	}

	if st := s.store.Stats(); st.Misses != before.Misses {
		t.Errorf("replay after sweep missed the store: misses %d → %d", before.Misses, st.Misses)
	}
	if n := spills.creates.Load(); n != created {
		t.Errorf("replay after sweep created %d spill temp files, want 0", n-created)
	}
	if sresp.Degraded || rresp.Degraded {
		t.Errorf("seek tier marked explicit sampling degraded: sweep %q, replay %q",
			sresp.DegradedReason, rresp.DegradedReason)
	}
	if sresp.Sampling == nil || sresp.Sampling.Mode != "time" || sresp.Sampling.CI95 <= 0 {
		t.Fatalf("sweep sampling block not populated: %+v", sresp.Sampling)
	}
	sresp.ElapsedSeconds, wantSweep.ElapsedSeconds = 0, 0
	if !reflect.DeepEqual(sresp, wantSweep) {
		t.Errorf("seek-tier sweep diverged from run-materialized sampling:\n got %+v\nwant %+v", sresp, wantSweep)
	}
	rresp.ElapsedSeconds, wantReplay.ElapsedSeconds = 0, 0
	if !reflect.DeepEqual(rresp, wantReplay) {
		t.Errorf("seek-tier replay diverged from run-materialized sampling:\n got %+v\nwant %+v", rresp, wantReplay)
	}
	if got := s.mSeek.Value(); got != 2 {
		t.Errorf("seek_tier_total = %d, want 2", got)
	}

	// Warm sampling cannot seek: same budget must stream exactly, degraded.
	warm := sreq
	warm.Sampling = &SamplingSpec{Window: 1000, Period: 8000}
	var wresp SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", warm, &wresp); code != 200 {
		t.Fatalf("warm sweep = %d: %s", code, raw)
	}
	if !wresp.Degraded || !strings.Contains(wresp.DegradedReason, "stream") {
		t.Errorf("warm spec over budget: degraded=%v reason=%q, want streamed fallback",
			wresp.Degraded, wresp.DegradedReason)
	}
	if wresp.Sampling != nil {
		t.Error("warm spec over budget returned a sampling block from nowhere")
	}
	if got := s.mSeek.Value(); got != 2 {
		t.Errorf("seek_tier_total after warm fallback = %d, want still 2", got)
	}
}
