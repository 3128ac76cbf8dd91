package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ibsim/internal/server"
	"ibsim/internal/server/client"
	"ibsim/internal/synth"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty input must give 0")
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := beyond(hundred, percentile(hundred, 90)); got != 10 {
		t.Errorf("samples beyond p90 = %d, want 10", got)
	}
	if xs[0] != 7 {
		t.Error("median must not reorder its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{4}, [3]float64{4, 4, 4}},
		{nil, [3]float64{0, 0, 0}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	parent := span{ID: 1, Name: "p", Start: 0, End: 100 * ms}
	kids := []span{
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 1, Name: "d", Start: 50 * ms, End: 50 * ms},  // empty
	}
	if got, want := selfTime(parent, kids), 60*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v (100 - [10,40] - [90,100])", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("childless self time = %v, want the duration", got)
	}
	tot := totals(append([]span{parent, {ID: 6, Name: "a", Start: 0, End: 5 * ms, Work: 7}}, kids...))
	if a := tot["a"]; a.self != 25*time.Millisecond || a.count != 2 || a.work != 7 {
		t.Errorf("totals[a] = %+v, want 25ms over 2 spans with work 7", a)
	}
	if p := tot["p"]; p.self != 60*time.Millisecond {
		t.Errorf("totals[p].self = %v, want 60ms", p.self)
	}
}

func TestRecorderDisabledRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	id := r.start("x", 0, 1)
	r.end(id, 5)
	if id != 0 || len(r.snapshot()) != 0 {
		t.Fatalf("disabled recorder recorded spans (id %d)", id)
	}
	on := newRecorder(true)
	root := on.start("root", 0, 0)
	on.timed("child", root, 9, 42, func() error { return nil })
	on.end(root, 0)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Req != 9 || s[1].Work != 42 || s[1].End < s[1].Start {
		t.Fatalf("spans = %+v", s)
	}
}

func TestGoldenSectionsRebuildTheFile(t *testing.T) {
	data, err := os.ReadFile("../paper_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	sec, err := goldenSections(string(data))
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]string, len(exhibits))
	for i, name := range exhibits {
		parts[i] = sec[name]
		if !strings.HasPrefix(parts[i], goldenTitles[name]) {
			t.Errorf("section %s starts %.30q", name, parts[i])
		}
	}
	// ibstables joins the exhibits with newlines: the sections must rebuild
	// the file exactly.
	if strings.Join(parts, "\n")+"\n" != string(data) {
		t.Error("sections do not rebuild paper_tables.txt")
	}
}

// TestTamperedExhibitFails is the batch negative control: one altered
// character in one exhibit of one pass is one failed operation.
func TestTamperedExhibitFails(t *testing.T) {
	want := map[string]string{"table1": "Table 1: x\n", "table2": "Table 2: y\n"}
	good := map[string]string{"table1": "Table 1: x\n", "table2": "Table 2: y\n"}
	bad := map[string]string{"table1": "Table 1: x\n", "table2": "Table 2: z\n"}
	o := &outcome{}
	checkOutputs(o, []map[string]string{good, bad}, []string{"table1", "table2"}, want)
	if o.attempted != 4 || o.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", o.attempted, o.failed)
	}
}

func TestTrafficIsSeeded(t *testing.T) {
	a, b, c := newTraffic(7), newTraffic(7), newTraffic(8)
	const blocks = 6
	differ := 0
	coldKinds := map[reqKind]int{}
	for blk := int64(0); blk < blocks; blk++ {
		kinds := map[reqKind]int{}
		profs := map[string]int{}
		cold := 0
		for i := blk * blockSize; i < (blk+1)*blockSize; i++ {
			ra, rb, rc := a.at(i), b.at(i), c.at(i)
			if ra != rb {
				t.Fatalf("request %d differs between two traffics with one seed", i)
			}
			if ra.kind != rc.kind || ra.prof.Name != rc.prof.Name || ra.cold != rc.cold {
				differ++
			}
			if (ra.kind == kindSkipReplay) != (ra.n == longInstructions) {
				t.Fatalf("request %d: kind %s with n %d", i, kindNames[ra.kind], ra.n)
			}
			if ra.cold != (ra.seed != a.hotSeed()) {
				t.Fatalf("request %d: cold %v with seed %d", i, ra.cold, ra.seed)
			}
			kinds[ra.kind]++
			profs[ra.prof.Name]++
			if ra.cold {
				cold++
				coldKinds[ra.kind]++
			}
		}
		for k := range kindNames {
			if kinds[reqKind(k)] != blockSize/len(kindNames) {
				t.Errorf("block %d: %d %s requests, want %d", blk, kinds[reqKind(k)], kindNames[k], blockSize/len(kindNames))
			}
		}
		if cold != 2 || len(profs) != 8 {
			t.Errorf("block %d: %d cold, %d workloads; want 2 and 8", blk, cold, len(profs))
		}
	}
	// One cold request of each kind per pair of blocks.
	for k := range kindNames {
		if got := coldKinds[reqKind(k)]; got != blocks/2 {
			t.Errorf("%d cold %s requests in %d blocks, want %d", got, kindNames[k], blocks, blocks/2)
		}
	}
	if int64(differ) < blocks*blockSize/2 {
		t.Errorf("seeds 7 and 8 give nearly the same sequence (%d differ)", differ)
	}
}

// TestTamperedResponseFails is the serve negative control: real responses
// at a small scale match the in-process reference, and one altered value
// in one response fails that response only.
func TestTamperedResponseFails(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{Store: synth.NewStore(1 << 26)}).Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetries(0))
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	var replies []reply
	for k := range kindNames {
		n := int64(40_000)
		if reqKind(k) == kindSkipReplay {
			n = longInstructions // the skip plan's windows are sized for the long traces
		}
		r := send(context.Background(), c, request{kind: reqKind(k), prof: p, seed: 3, n: n})
		if r.err != nil {
			t.Fatalf("%s: %v", kindNames[k], r.err)
		}
		replies = append(replies, r)
	}
	bad, err := verifyReplies(replies, newRecorder(false))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bad {
		if b != "" {
			t.Fatalf("untampered %s reply fails: %s", kindNames[replies[i].req.kind], b)
		}
	}

	tampered := append([]reply(nil), replies...)
	sw := *tampered[kindSweep].sweep
	sw.Cells = append([]server.CellResult(nil), sw.Cells...)
	sw.Cells[5].Misses++
	tampered[kindSweep].sweep = &sw
	rp := *tampered[kindSkipReplay].replay
	rp.Results = append([]server.EngineResult(nil), rp.Results...)
	rp.Results[2].StallCycles++
	tampered[kindSkipReplay].replay = &rp
	if bad, err = verifyReplies(tampered, newRecorder(false)); err != nil {
		t.Fatal(err)
	}
	for i, b := range bad {
		if wantBad := i == int(kindSweep) || i == int(kindSkipReplay); wantBad != (b != "") {
			t.Errorf("%s: tampered=%v but verdict %q", kindNames[i], wantBad, b)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the program
// prints in step: same workloads, same metric names and units, same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []m
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json has %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v here", i, c.json[i], d)
			}
		}
	}
}
