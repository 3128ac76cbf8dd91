package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/replay"
	"ibsim/internal/server"
	"ibsim/internal/server/client"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// The serve workloads drive an in-process ibsimd (server.New behind an
// httptest listener) through the retrying client with retries off, as a
// closed loop of two clients: ibsimd's callers (the cluster coordinator,
// ibsctl) each wait for their reply, and two clients match the two cores the
// benchmark was sized on.

const (
	serveClients = 2
	// roundSize is the run of consecutive requests whose completion time is
	// the serve workloads' wall_s.
	roundSize = 16
	// longInstructions is the trace length of the skip-sampled replays. At
	// 8M instructions every IBS workload's columnar file is over the spill
	// workload's 2 MiB budget, so those requests reach the checkpoint-seek
	// tier; at 2M they would all fit and stop at the columnar tier.
	longInstructions = 8_000_000
	// spillBudget is serve-spill's hard per-trace store budget: below one
	// trace's run-compacted size (so exact and set-sampled requests go to
	// the columnar-disk tier) and below an 8M-instruction columnar file (so
	// skip-sampled requests go to the checkpoint-seek tier).
	spillBudget = 2 << 20
)

type reqKind int

const (
	kindSweep      reqKind = iota // exact 24-cell sweep
	kindReplay                    // exact 6-engine replay bank
	kindSetSweep                  // set-sampled sweep (1/16 of the sets)
	kindSkipReplay                // skip-mode time-sampled replay, 8M instructions
)

var kindNames = [...]string{"sweep", "replay", "set-sweep", "skip-replay"}

// blockSize is the run of consecutive requests that holds the traffic mix
// exactly: blockSize/4 requests of each kind, each IBS workload twice, and
// two cold requests (one in 8), which name a never-seen seed and so pay
// generation, or on serve-spill a spill, inside their latency.
const blockSize = 16

// sweepCells is the exact and set-sampled sweeps' grid: 4 KB to 128 KB at
// 1, 2, 4 and 8 ways, 32-byte lines (24 cells; the smallest has 16 sets, the
// set-sampling modulus).
var sweepCells = func() []server.CellSpec {
	var cells []server.CellSpec
	for kb := 4; kb <= 128; kb *= 2 {
		for _, a := range []int{1, 2, 4, 8} {
			cells = append(cells, server.CellSpec{Sets: kb * 1024 / 32 / a, Assoc: a})
		}
	}
	return cells
}()

const (
	sweepLine = 32
	setMod    = 16
	// setMatch is the congruence class ibsimd samples for a set-sampling
	// request (its autoSetMatch mod the modulus); the reference must use
	// the same class.
	setMatch = 3
	// The skip-sampled plan: windows of n/256 instructions, one per 16
	// windows measured.
	skipWindow = longInstructions / 256
	skipPeriod = 16 * skipWindow
)

// bankEngine pairs an engine spec as sent on the wire with the same engine
// built directly for the in-process reference.
type bankEngine struct {
	spec server.EngineSpec
	mk   func() (fetch.Engine, error)
}

func l1(size, line, assoc int) cache.Config {
	return cache.Config{Size: size, LineSize: line, Assoc: assoc}
}

// replayBank is the replay requests' 6-engine bank: blocking, prefetching,
// bypass and stream-buffer engines over the paper's links.
var replayBank = []bankEngine{
	{server.EngineSpec{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: server.LinkSpec{Name: "economy"}},
		func() (fetch.Engine, error) { return fetch.NewBlocking(l1(8192, 32, 1), memsys.Economy().Memory, 0) }},
	{server.EngineSpec{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: server.LinkSpec{Name: "highperf"}, PrefetchLines: 1},
		func() (fetch.Engine, error) {
			return fetch.NewBlocking(l1(8192, 32, 1), memsys.HighPerformance().Memory, 1)
		}},
	{server.EngineSpec{Kind: "blocking", Size: 32768, LineSize: 64, Assoc: 2, Link: server.LinkSpec{Name: "economy"}},
		func() (fetch.Engine, error) { return fetch.NewBlocking(l1(32768, 64, 2), memsys.Economy().Memory, 0) }},
	{server.EngineSpec{Kind: "bypass", Size: 8192, LineSize: 32, Assoc: 1, Link: server.LinkSpec{Name: "l1l2"}, PrefetchLines: 1},
		func() (fetch.Engine, error) { return fetch.NewBypass(l1(8192, 32, 1), memsys.L1L2Link(), 1) }},
	{server.EngineSpec{Kind: "stream", Size: 8192, LineSize: 32, Assoc: 1, Link: server.LinkSpec{Name: "l1l2"}, Depth: 6},
		func() (fetch.Engine, error) { return fetch.NewStream(l1(8192, 32, 1), memsys.L1L2Link(), 6) }},
	{server.EngineSpec{Kind: "stream", Size: 16384, LineSize: 16, Assoc: 1, Link: server.LinkSpec{Name: "l1l2"}, Depth: 3},
		func() (fetch.Engine, error) { return fetch.NewStream(l1(16384, 16, 1), memsys.L1L2Link(), 3) }},
}

func bankSpecs() []server.EngineSpec {
	specs := make([]server.EngineSpec, len(replayBank))
	for i, b := range replayBank {
		specs[i] = b.spec
	}
	return specs
}

func newBank() ([]fetch.Engine, error) {
	engines := make([]fetch.Engine, len(replayBank))
	for i, b := range replayBank {
		e, err := b.mk()
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return engines, nil
}

// request is one generated request.
type request struct {
	idx  int64
	kind reqKind
	prof synth.Profile
	seed uint64
	n    int64
	cold bool
}

// traffic is the seeded request sequence: request i depends only on the
// workload seed and i, so the order, the kinds, the workloads and which
// requests are cold are fixed by the seed however the clients interleave.
// The kinds have equal shares, and cold requests are spread evenly over the
// kinds: each pair of blocks has one cold request of each kind.
type traffic struct {
	seed     uint64
	profiles []synth.Profile
}

func newTraffic(seed uint64) traffic { return traffic{seed: seed, profiles: synth.IBSMach()} }

// hotSeed is the trace seed of the hot pool: the workload seed itself, one
// trace per IBS workload.
func (t traffic) hotSeed() uint64 { return t.seed }

// rng returns a generator seeded by the workload seed and a block number.
func (t traffic) rng(salt, block int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(t.seed*0x9e3779b97f4a7c15) ^ salt<<48 ^ block))
}

func (t traffic) at(i int64) request {
	block, slot := i/blockSize, int(i%blockSize)
	// The pair of blocks shares a permutation of the kinds: the first
	// block's cold requests are of its first two kinds, the second's of the
	// other two.
	order := t.rng(1, block/2).Perm(len(kindNames))
	coldKinds := order[2*(block%2) : 2*(block%2)+2]

	type entry struct {
		kind reqKind
		cold bool
	}
	var entries []entry
	for k := range kindNames {
		for j := 0; j < blockSize/len(kindNames); j++ {
			cold := j == 0 && (k == coldKinds[0] || k == coldKinds[1])
			entries = append(entries, entry{kind: reqKind(k), cold: cold})
		}
	}
	r := t.rng(2, block)
	r.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
	// Each workload twice per block.
	profs := append(r.Perm(len(t.profiles)), r.Perm(len(t.profiles))...)
	prof := profs[slot]

	req := request{idx: i, kind: entries[slot].kind, prof: t.profiles[prof], seed: t.hotSeed(), n: instructions}
	if req.kind == kindSkipReplay {
		req.n = longInstructions
	}
	if entries[slot].cold {
		req.cold = true
		req.seed = t.seed + 1<<32 + uint64(i) // never in the hot pool, never repeated
	}
	return req
}

// warmups are the set-up requests: one of each kind per hot-pool trace.
func (t traffic) warmups() []request {
	var out []request
	for _, p := range t.profiles {
		for k := range kindNames {
			r := request{idx: -1, kind: reqKind(k), prof: p, seed: t.hotSeed(), n: instructions}
			if r.kind == kindSkipReplay {
				r.n = longInstructions
			}
			out = append(out, r)
		}
	}
	return out
}

// reply is one completed request as the client saw it.
type reply struct {
	req        request
	start, end time.Duration // offsets from the window start
	sweep      *server.SweepResponse
	replay     *server.ReplayResponse
	err        error
}

func (r reply) latency() time.Duration { return r.end - r.start }

func (r reply) elapsed() float64 {
	switch {
	case r.sweep != nil:
		return r.sweep.ElapsedSeconds
	case r.replay != nil:
		return r.replay.ElapsedSeconds
	}
	return 0
}

func send(ctx context.Context, c *client.Client, r request) reply {
	out := reply{req: r}
	switch r.kind {
	case kindSweep, kindSetSweep:
		req := server.SweepRequest{Workload: r.prof.Name, Seed: r.seed, Instructions: r.n, LineSize: sweepLine, Cells: sweepCells, CountDistinct: true}
		if r.kind == kindSetSweep {
			req.Sampling = &server.SamplingSpec{Set: setMod}
		}
		out.sweep, out.err = c.Sweep(ctx, req)
	default:
		req := server.ReplayRequest{Workload: r.prof.Name, Seed: r.seed, Instructions: r.n, Engines: bankSpecs()}
		if r.kind == kindSkipReplay {
			req.Sampling = &server.SamplingSpec{Window: skipWindow, Period: skipPeriod, Skip: true}
		}
		out.replay, out.err = c.Replay(ctx, req)
	}
	return out
}

// closedLoop runs serveClients clients over next(), each sending its next
// request only when its previous reply has arrived, until next reports no
// more requests. It returns the replies and the window's wall time.
func closedLoop(c *client.Client, rec *recorder, next func(elapsed time.Duration) (request, bool)) ([]reply, time.Duration) {
	var mu sync.Mutex
	var replies []reply
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				r, ok := next(time.Since(start))
				mu.Unlock()
				if !ok {
					return
				}
				id := rec.start("server."+kindNames[r.kind], 0, r.idx+1)
				t0 := time.Since(start)
				rep := send(context.Background(), c, r)
				rep.start, rep.end = t0, time.Since(start)
				rec.end(id, r.n)
				mu.Lock()
				replies = append(replies, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// serveConfig distinguishes the two serve workloads.
type serveConfig struct {
	// newStore returns the server's trace store and its clean-up.
	newStore func(dir string) (*synth.Store, func(), error)
	// probes runs the traced run's store-tier probes.
	probes func(e *env, t traffic, dir string, o *outcome) error
	// spanReferences records the in-memory reference computations as
	// layer spans on the traced run; serve-spill's server never runs those
	// drivers, so there they would only mislead.
	spanReferences bool
}

var serveHot = serveConfig{
	newStore: func(string) (*synth.Store, func(), error) {
		// ibsimd's default store: the process-wide memo, cold in a fresh
		// process.
		return synth.DefaultStore, synth.DefaultStore.Purge, nil
	},
	probes:         func(*env, traffic, string, *outcome) error { return nil },
	spanReferences: true,
}

var serveSpill = serveConfig{
	newStore: func(dir string) (*synth.Store, func(), error) {
		st := synth.NewStoreLimits(synth.DefaultIdleBudget, spillBudget)
		if err := st.SetSpillDir(dir); err != nil {
			return nil, nil, err
		}
		return st, func() { st.Purge(); os.RemoveAll(dir) }, nil
	},
	probes: spillProbes,
}

func runServeHot(e *env) (*outcome, error)   { return runServe(e, serveHot) }
func runServeSpill(e *env) (*outcome, error) { return runServe(e, serveSpill) }

// instance is one set-up server.
type instance struct {
	store  *synth.Store
	ts     *httptest.Server
	client *client.Client
	close  func()
}

// setUp starts a server on a fresh store and warms the hot pool by sending
// it one request of each kind per hot trace (on serve-spill this spills
// them), exactly as traffic would.
func setUp(cfg serveConfig, t traffic, dir string) (*instance, error) {
	st, cleanup, err := cfg.newStore(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: st})
	ts := httptest.NewServer(srv.Handler())
	in := &instance{store: st, ts: ts, client: client.New(ts.URL, client.WithRetries(0)),
		close: func() { ts.Close(); cleanup() }}
	warm := t.warmups()
	var i int
	replies, _ := closedLoop(in.client, newRecorder(false), func(time.Duration) (request, bool) {
		if i == len(warm) {
			return request{}, false
		}
		i++
		return warm[i-1], true
	})
	for _, r := range replies {
		if r.err != nil {
			in.close()
			return nil, fmt.Errorf("warming %s %s: %w", kindNames[r.req.kind], r.req.prof.Name, r.err)
		}
	}
	return in, nil
}

// expvars reads the server's /metrics counters.
func expvars(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := map[string]int64{}
	for k, v := range raw {
		var n int64
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
		}
	}
	return out, nil
}

func runServe(e *env, cfg serveConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	t := newTraffic(e.seed)
	dir, err := filepath.Abs(filepath.Join(e.outDir, fmt.Sprintf("spill-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, repeated; the last instance serves the measured window.
	// Closing the previous instance is timed with the next set-up; it takes
	// milliseconds against seconds of warming.
	var in *instance
	setup, err := medianSetUp(func() (err error) {
		if in != nil {
			in.close()
		}
		in, err = setUp(cfg, t, dir)
		return err
	})
	if err != nil {
		if in != nil {
			in.close()
		}
		return nil, err
	}
	o.metrics["setup_s"] = setup

	// The measured window: the seeded sequence until --seconds have passed.
	var issued int64
	replies, wall := closedLoop(in.client, newRecorder(false), func(elapsed time.Duration) (request, bool) {
		if elapsed >= e.duration {
			return request{}, false
		}
		issued++
		return t.at(issued - 1), true
	})
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	in.close()
	all := replies

	if e.traced {
		// The same requests again on a fresh set-up, traced.
		if in, err = setUp(cfg, t, dir); err != nil {
			return nil, err
		}
		defer in.close()
		before, err := expvars(in.ts.URL)
		if err != nil {
			return nil, err
		}
		stats0 := in.store.Stats()
		meter := startProcessMeter()
		var n int64
		traced, twall := closedLoop(in.client, e.rec, func(time.Duration) (request, bool) {
			if n == issued {
				return request{}, false
			}
			n++
			return t.at(n - 1), true
		})
		meter.stop(o.metrics)
		after, err := expvars(in.ts.URL)
		if err != nil {
			return nil, err
		}
		stats1 := in.store.Stats()
		if h, m := stats1.Hits-stats0.Hits, stats1.Misses-stats0.Misses; h+m > 0 {
			o.metrics["synth.store.hit_ratio"] = float64(h) / float64(h+m)
		}
		o.metrics["bench.trace_overhead_pct"] = 100 * (twall.Seconds() - wall.Seconds()) / wall.Seconds()
		delta := func(k string) float64 { return float64(after[k] - before[k]) }
		o.metrics["server.dedup_hits"] = delta("dedup_hits_total")
		o.metrics["server.rejected"] = delta("rejected_429_total")
		o.metrics["server.tier.sampling"] = delta("sampling_tier_total")
		o.metrics["server.tier.columnar"] = delta("columnar_tier_total")
		o.metrics["server.tier.seek"] = delta("seek_tier_total")
		o.metrics["server.degraded"] = delta("degraded_total")
		var over []float64
		busy := 0.0
		for _, r := range traced {
			if r.err == nil {
				over = append(over, 1e3*(r.latency().Seconds()-r.elapsed()))
				busy += r.elapsed()
			}
		}
		o.metrics["server.overhead_ms"] = median(over)
		o.metrics["server.busy_s"] = busy
		o.notef("untraced window %.3fs, traced window %.3fs, %d requests each", wall.Seconds(), twall.Seconds(), issued)
		all = append(all, traced...)
	}

	// Verify every reply against a direct in-process computation.
	refRec := newRecorder(false)
	if e.traced && cfg.spanReferences {
		refRec = e.rec
	}
	bad, err := verifyReplies(all, refRec)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var correct int
	for i, r := range replies {
		o.attempted++
		switch {
		case r.err != nil:
			o.fail("request %d (%s %s seed %d): %v", r.req.idx, kindNames[r.req.kind], r.req.prof.Name, r.req.seed, r.err)
		case bad[i] != "":
			o.fail("request %d: %s", r.req.idx, bad[i])
		default:
			correct++
			lat = append(lat, 1e3*r.latency().Seconds())
		}
	}
	for i := len(replies); i < len(all); i++ {
		o.attempted++
		if r := all[i]; r.err != nil {
			o.fail("traced request %d: %v", r.req.idx, r.err)
		} else if bad[i] != "" {
			o.fail("traced request %d: %s", r.req.idx, bad[i])
		}
	}

	if e.traced {
		if err := cfg.probes(e, t, dir, o); err != nil {
			return nil, err
		}
		spans := e.rec.snapshot()
		layerMetrics(spans, o.metrics)
		shareLines(spans, o)
		return o, nil
	}
	o.metrics["wall_s"] = median(roundTimes(replies))
	o.metrics["peak_rss_mb"] = rss
	o.metrics["qps"] = float64(correct) / wall.Seconds()
	p50, p90 := median(lat), percentile(lat, 90)
	o.metrics["latency_p50_ms"] = p50
	o.metrics["latency_p90_ms"] = p90
	q1, _, q3 := quartiles(lat)
	o.notef("%d requests in %.3fs; latency q1 %.2fms, p50 %.2fms, q3 %.2fms, p90 %.2fms over %d samples (%d beyond p90)",
		len(replies), wall.Seconds(), q1, p50, q3, p90, len(lat), beyond(lat, p90))
	for k := range kindNames {
		var kl []float64
		cold := 0
		for _, r := range replies {
			if int(r.req.kind) == k && r.err == nil {
				kl = append(kl, 1e3*r.latency().Seconds())
				if r.req.cold {
					cold++
				}
			}
		}
		o.notef("  %-11s %4d requests (%d cold), p50 %.2fms, max %.2fms", kindNames[k], len(kl), cold, median(kl), percentile(kl, 100))
	}
	return o, nil
}

// roundTimes returns, for each complete run of roundSize consecutive
// requests of the sequence, the time from its first send to its last reply.
func roundTimes(replies []reply) []float64 {
	byIdx := make(map[int64]reply, len(replies))
	for _, r := range replies {
		byIdx[r.req.idx] = r
	}
	var out []float64
	for base := int64(0); ; base += roundSize {
		first, last := time.Duration(1<<62), time.Duration(0)
		for i := base; i < base+roundSize; i++ {
			r, ok := byIdx[i]
			if !ok {
				sort.Float64s(out)
				return out
			}
			first, last = min(first, r.start), max(last, r.end)
		}
		out = append(out, (last - first).Seconds())
	}
}

// ---------------------------------------------------------------- references

// refKey groups replies that share one generated trace.
type refKey struct {
	name string
	seed uint64
	n    int64
}

// verifyReplies recomputes every distinct request in-process, untimed, with
// the in-memory drivers (sweep.Pass.Run, sweep.SampledPass.Run,
// replay.Replay, replay.Sampled) over traces from a private store that
// caches nothing, and returns, per reply, why it differs ("" when it
// matches or failed outright).
func verifyReplies(replies []reply, rec *recorder) ([]string, error) {
	groups := map[refKey][]int{}
	var keys []refKey
	for i, r := range replies {
		if r.err != nil {
			continue
		}
		k := refKey{r.req.prof.Name, r.req.seed, r.req.n}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	bad := make([]string, len(replies))
	refStore := synth.NewStore(0)
	err := parallel(len(keys), func(g int) error {
		return verifyGroup(refStore, replies, groups[keys[g]], bad, rec)
	})
	if err != nil {
		return nil, err
	}
	return bad, nil
}

// verifyGroup computes the reference for each kind present among the
// replies idx (which share one trace) and compares. Distinct goroutines
// write distinct elements of bad.
func verifyGroup(st *synth.Store, replies []reply, idx []int, bad []string, rec *recorder) error {
	ctx := context.Background()
	first := replies[idx[0]].req
	p, seed, n := first.prof, first.seed, first.n
	want := map[reqKind]string{}
	kinds := map[reqKind]bool{}
	for _, i := range idx {
		kinds[replies[i].req.kind] = true
	}
	if kinds[kindSkipReplay] {
		var runs []trace.Run
		var release func()
		err := rec.timed("synth.generate", 0, 0, n, func() (err error) {
			runs, release, err = st.RunsOnly(ctx, p, seed, n)
			return err
		})
		if err != nil {
			return err
		}
		bank, err := newBank()
		if err != nil {
			release()
			return err
		}
		var res []replay.SampledResult
		err = rec.timed("replay.sampled", 0, 0, n, func() (err error) {
			res, err = replay.Sampled(ctx, runs, bank, replay.SamplePlan{Window: skipWindow, Period: skipPeriod})
			return err
		})
		release()
		if err != nil {
			return err
		}
		want[kindSkipReplay] = sampledReplayKey(res)
	}
	if kinds[kindSweep] || kinds[kindSetSweep] || kinds[kindReplay] {
		var refs []trace.Ref
		var release func()
		err := rec.timed("synth.generate", 0, 0, n, func() (err error) {
			refs, release, err = st.InstrCtx(ctx, p, seed, n)
			return err
		})
		if err != nil {
			return err
		}
		defer release()
		var runs []trace.Run
		rec.timed("trace.compact", 0, 0, n, func() error { runs = trace.Compact(refs); return nil })
		cells := make([]sweep.Cell, len(sweepCells))
		for i, c := range sweepCells {
			cells[i] = sweep.Cell{Sets: c.Sets, Assoc: c.Assoc}
		}
		if kinds[kindSweep] {
			var m *sweep.Matrix
			err := rec.timed("sweep.exact", 0, 0, n, func() (err error) {
				m, err = sweep.Pass{LineSize: sweepLine, Cells: cells, CountDistinct: true}.Run(refs)
				return err
			})
			if err != nil {
				return err
			}
			want[kindSweep] = sweepKey(m)
		}
		if kinds[kindSetSweep] {
			var m *sweep.SampledMatrix
			err := rec.timed("sweep.sampled", 0, 0, n, func() (err error) {
				m, err = sweep.SampledPass{LineSize: sweepLine, Cells: cells, SetMod: setMod, SetMatch: setMatch, CountDistinct: true}.Run(runs)
				return err
			})
			if err != nil {
				return err
			}
			want[kindSetSweep] = sampledSweepKey(m)
		}
		if kinds[kindReplay] {
			bank, err := newBank()
			if err != nil {
				return err
			}
			var res []fetch.Result
			err = rec.timed("replay.bank", 0, 0, n, func() (err error) {
				res, err = replay.Replay(ctx, runs, bank)
				return err
			})
			if err != nil {
				return err
			}
			want[kindReplay] = replayKey(res)
		}
	}
	for _, i := range idx {
		if got := replyKey(replies[i]); got != want[replies[i].req.kind] {
			bad[i] = fmt.Sprintf("%s %s seed %d differs from the in-process reference:\n  got  %s\n  want %s",
				kindNames[replies[i].req.kind], p.Name, seed, got, want[replies[i].req.kind])
		}
	}
	return nil
}

// The comparison keys render every simulated quantity of a response, floats
// by their exact bits (%v prints the shortest form that round-trips), so two
// keys are equal exactly when the answers are bit-identical.

func sweepKey(m *sweep.Matrix) string {
	return fmt.Sprintf("accesses=%d distinct=%d misses=%v", m.Accesses, m.Distinct, m.Misses)
}

func sampledSweepKey(m *sweep.SampledMatrix) string {
	cells := make([][3]any, len(m.Cells))
	for i := range m.Cells {
		cells[i] = [3]any{m.Misses[i], m.Estimates[i].MPI, m.Estimates[i].CI95}
	}
	return fmt.Sprintf("accesses=%d distinct=%d coverage=%v cells=%v", m.SampledInstructions, m.Distinct, m.Coverage(), cells)
}

func replayKey(res []fetch.Result) string {
	out := make([][6]any, len(res))
	for i, r := range res {
		out[i] = [6]any{r.Instructions, r.Misses, r.BufferHits, r.StallCycles, r.CPIinstr(), r.MPI()}
	}
	return fmt.Sprintf("engines=%v", out)
}

func sampledReplayKey(res []replay.SampledResult) string {
	out := make([][7]any, len(res))
	for i, r := range res {
		m := r.Measured
		out[i] = [7]any{m.Instructions, m.Misses, m.BufferHits, m.StallCycles, m.CPIinstr(), r.Estimate.MPI, r.Estimate.CI95}
	}
	return fmt.Sprintf("coverage=%v measured=%d engines=%v", res[0].Estimate.Coverage, res[0].Estimate.SampledInstructions, out)
}

// replyKey renders a response the same way as its reference.
func replyKey(r reply) string {
	switch r.req.kind {
	case kindSweep:
		misses := make([]int64, len(r.sweep.Cells))
		for i, c := range r.sweep.Cells {
			misses[i] = c.Misses
		}
		return fmt.Sprintf("accesses=%d distinct=%d misses=%v", r.sweep.Accesses, r.sweep.Distinct, misses)
	case kindSetSweep:
		cov := 0.0
		if r.sweep.Sampling != nil {
			cov = r.sweep.Sampling.Coverage
		}
		cells := make([][3]any, len(r.sweep.Cells))
		for i, c := range r.sweep.Cells {
			cells[i] = [3]any{c.Misses, c.MPI, c.CI95}
		}
		return fmt.Sprintf("accesses=%d distinct=%d coverage=%v cells=%v", r.sweep.Accesses, r.sweep.Distinct, cov, cells)
	case kindReplay:
		out := make([][6]any, len(r.replay.Results))
		for i, e := range r.replay.Results {
			out[i] = [6]any{e.Instructions, e.Misses, e.BufferHits, e.StallCycles, e.CPI, e.MPI}
		}
		return fmt.Sprintf("engines=%v", out)
	default:
		var cov float64
		var measured int64
		if s := r.replay.Sampling; s != nil {
			cov, measured = s.Coverage, s.MeasuredInstructions
		}
		out := make([][7]any, len(r.replay.Results))
		for i, e := range r.replay.Results {
			out[i] = [7]any{e.Instructions, e.Misses, e.BufferHits, e.StallCycles, e.CPI, e.MPI, e.CI95}
		}
		return fmt.Sprintf("coverage=%v measured=%d engines=%v", cov, measured, out)
	}
}
