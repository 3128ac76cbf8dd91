package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ibsim"
	"ibsim/internal/cache"
	"ibsim/internal/experiments"
	"ibsim/internal/stats"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/vm"
)

// The batch workloads render paper exhibits through ibsim.RenderExhibit at
// paper scale. A run makes one pass, which renders every exhibit of the
// workload from a cold trace store (a pass takes longer than any --seconds
// the benchmark is run with).

// paperTables is every paper exhibit except Figure 5, in paper order.
var paperTables = func() []string {
	var out []string
	for _, e := range exhibits {
		if e != "figure5" {
			out = append(out, e)
		}
	}
	return out
}()

// goldenTitles is the first line of each exhibit's rendering, which is how
// paper_tables.txt (the exhibits joined by blank lines, in paper order) is
// cut back into per-exhibit sections.
var goldenTitles = map[string]string{
	"table1": "Table 1:", "table2": "Table 2:", "table3": "Table 3:", "table4": "Table 4:",
	"figure1": "Figure 1 (SPEC92)", "figure2": "Figure 2:", "table5": "Table 5:",
	"figure3": "Figure 3 (economy)", "figure4": "Figure 4:", "figure5": "Figure 5 (verilog)",
	"figure6": "Figure 6:", "table6": "Table 6:", "table7": "Table 7a:", "table8": "Table 8:",
	"figure7": "Figure 7 (economy)",
}

// goldenSections splits the committed seed-0 output into the text each
// exhibit must render (its section minus the joining newline).
func goldenSections(text string) (map[string]string, error) {
	starts := make([]int, len(exhibits))
	for i, name := range exhibits {
		title := goldenTitles[name]
		at := -1
		if strings.HasPrefix(text, title) {
			at = 0
		} else if j := strings.Index(text, "\n"+title); j >= 0 {
			at = j + 1
		}
		if at < 0 || (i > 0 && at <= starts[i-1]) {
			return nil, fmt.Errorf("paper_tables.txt: section %q (%q) missing or out of order", name, title)
		}
		starts[i] = at
	}
	out := make(map[string]string, len(exhibits))
	for i, name := range exhibits {
		end := len(text)
		if i+1 < len(exhibits) {
			end = starts[i+1]
		}
		sec := text[starts[i]:end]
		if !strings.HasSuffix(sec, "\n\n") && i+1 < len(exhibits) {
			return nil, fmt.Errorf("paper_tables.txt: section %q does not end in a blank line", name)
		}
		out[name] = strings.TrimSuffix(sec, "\n")
	}
	return out, nil
}

// batch describes one batch workload.
type batch struct {
	names []string
	// profiles are the traces the exhibits acquire from the store; the
	// traced run acquires them up front under synth spans. runs names the
	// subset the exhibits also acquire run-compacted.
	profiles, runs func() []synth.Profile
	// reference returns expected outputs at a nonzero seed; an exhibit it
	// leaves out was checked by it directly.
	reference func(e *env, outs map[string]string, o *outcome) (map[string]string, error)
	// probes runs the traced run's per-layer probes on the held traces.
	probes func(e *env, parent int, h *held, outs map[string]string, o *outcome) error
}

var paperTablesBatch = batch{
	names: paperTables,
	profiles: func() []synth.Profile {
		return append(append(synth.IBSMach(), synth.IBSUltrix()...), synth.SPEC92()...)
	},
	runs:      func() []synth.Profile { return append(synth.IBSMach(), synth.SPEC92()...) },
	reference: serialReference,
	probes:    paperTablesProbes,
}

var figure5Batch = batch{
	names:     []string{"figure5"},
	profiles:  figure5Profiles,
	runs:      func() []synth.Profile { return nil },
	reference: figure5SpotCheck,
	probes:    figure5Probes,
}

func runPaperTables(e *env) (*outcome, error) { return runBatch(e, paperTablesBatch) }
func runFigure5(e *env) (*outcome, error)     { return runBatch(e, figure5Batch) }

func runBatch(e *env, b batch) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	// Set-up: read the committed outputs and empty the store. Nothing is
	// generated before timing.
	var golden map[string]string
	setup, err := medianSetUp(func() error {
		data, err := os.ReadFile("paper_tables.txt")
		if err != nil {
			return err
		}
		golden, err = goldenSections(string(data))
		synth.DefaultStore.Purge()
		return err
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup

	opt := ibsim.Options{Instructions: instructions, Seed: e.seed}
	var all []map[string]string
	if e.traced {
		if all, err = tracedBatch(e, b, opt, o); err != nil {
			return nil, err
		}
	} else {
		outs, wall, times, err := batchPass(b.names, opt, newRecorder(false), nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		o.notef("pass: %.3fs (%s)", wall.Seconds(), strings.Join(times, ", "))
		all = []map[string]string{outs}
		// One operation is the pass: qps and the latencies restate its time.
		o.metrics["wall_s"] = wall.Seconds()
		o.metrics["peak_rss_mb"] = rss
		o.metrics["qps"] = 1 / wall.Seconds()
		o.metrics["latency_p50_ms"] = 1e3 * wall.Seconds()
		o.metrics["latency_p90_ms"] = 1e3 * wall.Seconds()
	}

	// Verify every exhibit of every pass: against the committed output at
	// seed 0, against the reference executor otherwise.
	want := golden
	if e.seed != 0 {
		if want, err = b.reference(e, all[0], o); err != nil {
			return nil, err
		}
	}
	checkOutputs(o, all, b.names, want)
	return o, nil
}

// checkOutputs counts every exhibit of every pass as an operation and fails
// each whose output differs from want. An exhibit missing from want was
// checked by the reference directly.
func checkOutputs(o *outcome, all []map[string]string, names []string, want map[string]string) {
	for _, outs := range all {
		for _, name := range names {
			o.attempted++
			if exp, ok := want[name]; ok && outs[name] != exp {
				o.fail("%s output differs from its reference", name)
			}
		}
	}
}

// batchPass renders names from a cold store and returns the outputs and the
// wall time. An enabled recorder gets the pass, the up-front trace
// acquisition and each exhibit as spans.
func batchPass(names []string, opt ibsim.Options, rec *recorder, acquire func(parent int) error) (outs map[string]string, wall time.Duration, times []string, err error) {
	synth.DefaultStore.Purge()
	runtime.GC()
	outs = make(map[string]string, len(names))
	start := time.Now()
	root := rec.start("pass", 0, 0)
	if acquire != nil {
		if err := acquire(root); err != nil {
			return nil, 0, nil, err
		}
	}
	for _, name := range names {
		id := rec.start("experiments."+name, root, 0)
		t := time.Now()
		out, err := ibsim.RenderExhibit(name, opt, false)
		rec.end(id, 0)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		outs[name] = out
		times = append(times, fmt.Sprintf("%s %.2f", name, time.Since(t).Seconds()))
	}
	wall = time.Since(start)
	rec.end(root, 0)
	return outs, wall, times, nil
}

// held is the traces a traced pass acquired up front, kept until its probes
// have run.
type held struct {
	refs     map[string][]trace.Ref
	runs     map[string][]trace.Run
	releases []func()
}

func (h *held) release() {
	for _, r := range h.releases {
		r()
	}
	h.releases = nil
}

// acquire returns a pass's up-front trace acquisition: the workload's
// traces, generated and then compacted on as many goroutines as the
// exhibits' own runners use, each under a span, and held in h.
func acquire(b batch, seed uint64, rec *recorder, h *held) func(parent int) error {
	return func(parent int) error {
		ctx := context.Background()
		var mu sync.Mutex
		keep := func(name string, refs []trace.Ref, runs []trace.Run, rel func()) {
			mu.Lock()
			defer mu.Unlock()
			h.refs[name], h.releases = refs, append(h.releases, rel)
			if runs != nil {
				h.runs[name] = runs
			}
		}
		gen := b.profiles()
		err := parallel(len(gen), func(i int) error {
			id := rec.start("synth.generate", parent, 0)
			refs, rel, err := synth.DefaultStore.InstrCtx(ctx, gen[i], seed, instructions)
			rec.end(id, instructions)
			if err == nil {
				keep(gen[i].Name, refs, nil, rel)
			}
			return err
		})
		if err != nil {
			return err
		}
		compact := b.runs()
		return parallel(len(compact), func(i int) error {
			id := rec.start("trace.compact", parent, 0)
			refs, runs, rel, err := synth.DefaultStore.InstrRuns(ctx, compact[i], seed, instructions)
			rec.end(id, instructions)
			if err == nil {
				keep(compact[i].Name, refs, runs, rel)
			}
			return err
		})
	}
}

func newHeld() *held { return &held{refs: map[string][]trace.Ref{}, runs: map[string][]trace.Run{}} }

// tracedBatch is the traced run. Two passes from a cold store acquire the
// traces up front and then render each exhibit: the first with the
// recorder off, as the baseline of bench.trace_overhead_pct, the second
// under spans. The layer probes then run on the second pass's held traces.
// It returns both passes' outputs.
func tracedBatch(e *env, b batch, opt ibsim.Options, o *outcome) ([]map[string]string, error) {
	base := newHeld()
	off := newRecorder(false)
	outs0, untraced, _, err := batchPass(b.names, opt, off, acquire(b, e.seed, off, base))
	base.release()
	if err != nil {
		return nil, err
	}

	h := newHeld()
	defer h.release()
	meter := startProcessMeter()
	before := synth.DefaultStore.Stats()
	outs, wall, _, err := batchPass(b.names, opt, e.rec, acquire(b, e.seed, e.rec, h))
	if err != nil {
		return nil, err
	}
	after := synth.DefaultStore.Stats()
	meter.stop(o.metrics)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		o.metrics["synth.store.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	o.metrics["bench.trace_overhead_pct"] = 100 * (wall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	o.notef("untraced pass %.3fs, traced pass %.3fs; store hits %d, misses %d", untraced.Seconds(), wall.Seconds(), hits, misses)

	probes := e.rec.start("probes", 0, 0)
	err = b.probes(e, probes, h, outs, o)
	e.rec.end(probes, 0)
	if err != nil {
		return nil, err
	}
	spans := e.rec.snapshot()
	layerMetrics(spans, o.metrics)
	shareLines(spans, o)
	return []map[string]string{outs0, outs}, nil
}

// ---------------------------------------------------------------- references

// exeHash identifies the running binary, so cached references never outlive
// the code that computed them.
func exeHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// serialReference renders every paper-tables exhibit through the reference
// executors, untimed: Options.Serial runs each exhibit's per-workload runner
// on one goroutine, and Options.PerConfig makes one full simulation per
// configuration instead of the sweep engine (Figures 1, 3, 4) and the
// replay fan-out (Tables 5-8, Figures 6, 7). The store is emptied first, so
// no trace of the timed pass is reused. Two exhibits render at a time, each
// on its own serial runner. Results are cached under ibsbench/.refcache by
// (binary, seed).
func serialReference(e *env, _ map[string]string, o *outcome) (map[string]string, error) {
	hash, err := exeHash()
	if err != nil {
		return nil, err
	}
	path := filepath.Join("ibsbench", ".refcache", fmt.Sprintf("%s-paper-tables-seed%d.json", hash, e.seed))
	if data, err := os.ReadFile(path); err == nil {
		var ref map[string]string
		if json.Unmarshal(data, &ref) == nil && len(ref) == len(paperTables) {
			o.notef("reference outputs from %s", path)
			return ref, nil
		}
	}
	t := time.Now()
	synth.DefaultStore.Purge()
	outs := make([]string, len(paperTables))
	opt := ibsim.Options{Instructions: instructions, Seed: e.seed, Serial: true, PerConfig: true}
	err = parallel(len(paperTables), func(i int) (err error) {
		if outs[i], err = ibsim.RenderExhibit(paperTables[i], opt, false); err != nil {
			return fmt.Errorf("reference %s: %w", paperTables[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ref := make(map[string]string, len(paperTables))
	for i, name := range paperTables {
		ref[name] = outs[i]
	}
	o.notef("reference outputs computed with Options.Serial and Options.PerConfig in %.1fs", time.Since(t).Seconds())
	data, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return nil, err
	}
	return ref, os.Rename(path+".tmp", path)
}

// figure5Profiles are the four workloads Figure 5 plots.
func figure5Profiles() []synth.Profile {
	var out []synth.Profile
	for _, name := range []string{"verilog", "gs", "eqntott", "espresso"} {
		p, err := synth.Lookup(name)
		if err != nil {
			panic(err) // the registry is compiled in
		}
		out = append(out, p)
	}
	return out
}

// Figure 5's grid and trial count (experiments.Figure5 at default options).
var (
	figure5Sizes  = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}
	figure5Assocs = []int{1, 2, 4}
)

const (
	figure5Trials  = 5
	figure5Penalty = 6.0
)

// figure5Point recomputes one Figure 5 point directly: per trial, translate
// every reference through a fresh random page mapping into buf, then run the
// buffer through a physically indexed cache. With a recorder, each step is a
// span.
func figure5Point(p synth.Profile, refs []trace.Ref, kb, assoc int, buf []uint64, rec *recorder, parent int) experiments.Figure5Point {
	var sample stats.Sample
	n := int64(len(refs))
	for trial := 0; trial < figure5Trials; trial++ {
		mapper := vm.MustNewMapper(vm.Config{Policy: vm.RandomAlloc, Seed: p.Seed*1000 + uint64(kb)*10 + uint64(assoc)})
		mapper.ResetTrial(uint64(trial))
		c := cache.MustNew(cache.Config{Size: kb * 1024, LineSize: 32, Assoc: assoc})
		id := rec.start("vm.translate", parent, 0)
		for i, r := range refs {
			buf[i] = mapper.Translate(r.Addr, r.Domain)
		}
		rec.end(id, n)
		id = rec.start("cache.access", parent, 0)
		for _, a := range buf[:n] {
			c.Access(a)
		}
		rec.end(id, n)
		st := c.Stats()
		sample.Add(float64(st.Misses) / float64(st.Accesses) * figure5Penalty)
	}
	return experiments.Figure5Point{Workload: p.Name, SizeKB: kb, Assoc: assoc, MeanCPI: sample.Mean(), StdDev: sample.StdDev()}
}

// figure5Cell returns the rendered std-dev cell of one point of a Figure 5
// rendering.
func figure5Cell(text, workload string, kb, assocIdx int) (string, bool) {
	_, panel, ok := strings.Cut(text, "Figure 5 ("+workload+")")
	if !ok {
		return "", false
	}
	panel, _, _ = strings.Cut(panel, "\n\n")
	for _, line := range strings.Split(panel, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == fmt.Sprint(kb) {
			return f[1+assocIdx], true
		}
	}
	return "", false
}

// figure5SpotChecks is how many points a nonzero-seed Figure 5 run
// recomputes directly. The full serial reference would cost about twice the
// measured pass on every run; the traced run recomputes all 108 points.
const figure5SpotChecks = 12

// figure5SpotCheck recomputes a seeded sample of Figure 5 points directly
// from the vm and cache layers, untimed, and compares each with the rendered
// cell; it returns no expected text (the checks are made here).
func figure5SpotCheck(e *env, outs map[string]string, o *outcome) (map[string]string, error) {
	profiles := figure5Profiles()
	rng := rand.New(rand.NewSource(int64(e.seed)))
	type pick struct{ p, s, a int }
	picks := make([]pick, figure5SpotChecks)
	for i := range picks {
		picks[i] = pick{rng.Intn(len(profiles)), rng.Intn(len(figure5Sizes)), rng.Intn(len(figure5Assocs))}
	}
	got := make([]experiments.Figure5Point, len(picks))
	off := newRecorder(false)
	err := parallel(len(picks), func(i int) error {
		pk := picks[i]
		refs, rel, err := synth.DefaultStore.Instr(profiles[pk.p], e.seed, instructions)
		if err != nil {
			return err
		}
		defer rel()
		got[i] = figure5Point(profiles[pk.p], refs, figure5Sizes[pk.s], figure5Assocs[pk.a], make([]uint64, len(refs)), off, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pk := range picks {
		o.attempted++
		want := fmt.Sprintf("%.4f", got[i].StdDev)
		cell, ok := figure5Cell(outs["figure5"], got[i].Workload, got[i].SizeKB, pk.a)
		if !ok || cell != want {
			o.fail("figure5 %s %dKB %d-way: rendered %q, direct computation %q", got[i].Workload, got[i].SizeKB, got[i].Assoc, cell, want)
		}
	}
	o.notef("figure5: %d points recomputed directly from vm and cache", len(picks))
	return map[string]string{}, nil
}

// ---------------------------------------------------------------- probes

// figure5Probes recomputes every Figure 5 point with translation and cache
// access timed apart (one buffer per workload) and checks the full
// rendering against the exhibit's.
func figure5Probes(e *env, parent int, h *held, outs map[string]string, o *outcome) error {
	profiles := figure5Profiles()
	points := make([][]experiments.Figure5Point, len(profiles))
	parallel(len(profiles), func(i int) error {
		p := profiles[i]
		buf := make([]uint64, len(h.refs[p.Name]))
		for _, kb := range figure5Sizes {
			for _, a := range figure5Assocs {
				points[i] = append(points[i], figure5Point(p, h.refs[p.Name], kb, a, buf, e.rec, parent))
			}
		}
		return nil
	})
	var res experiments.Figure5Result
	for _, pts := range points {
		res.Points = append(res.Points, pts...)
	}
	o.attempted++
	if res.Render() != outs["figure5"] {
		o.fail("figure5: direct vm+cache recomputation renders differently from the exhibit")
	}
	return nil
}

// parallel runs fn(0..n-1) on runtime.GOMAXPROCS goroutines and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
