package check

import (
	"strings"
	"testing"
)

// The chaos suite itself: every scenario must pass against the current
// implementation, cover the six required fault classes, and be
// deterministic.
func TestRunChaosAllPass(t *testing.T) {
	opt := Options{Instructions: 50_000}
	results, err := RunChaos(opt)
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	want := []string{
		"chaos/truncation", "chaos/bit-flip", "chaos/short-read",
		"chaos/error-after-n", "chaos/columnar-salvage",
		"chaos/write-fault-sticky",
		"chaos/over-budget-store", "chaos/checkpoint-corrupt",
		"chaos/worker-panic",
		"chaos/server-slow-loris", "chaos/server-cancel",
		"chaos/server-over-budget", "chaos/server-runs-tier",
		"chaos/server-panic",
		"chaos/cluster-worker-kill", "chaos/cluster-hung-worker",
		"chaos/cluster-corrupt-partial", "chaos/cluster-cache-poison",
		"chaos/cluster-all-workers-lost",
		"chaos/crash-atomicio", "chaos/crash-manifest",
		"chaos/crash-spill", "chaos/crash-cluster-checkpoint",
		"chaos/crash-cluster-cache",
	}
	if len(results) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Name != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, r.Name, want[i])
		}
		if !r.Passed {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		}
		if r.Detail == "" {
			t.Errorf("%s has no detail", r.Name)
		}
	}
}

// A scenario panic is contained as a failing Result, never a crash.
func TestRunIsolatedContainsPanic(t *testing.T) {
	r := runIsolated("chaos/self", func() Result { panic("scenario bug") })
	if r.Passed {
		t.Fatal("panicking scenario passed")
	}
	if !strings.Contains(r.Detail, "scenario bug") {
		t.Fatalf("panic payload lost: %s", r.Detail)
	}
}
