// Command ibsbench is the repository benchmark. It runs one named workload
// against the ibsim library and the ibsimd service layer in a fresh process,
// checks every output against a reference, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics derived from spans) as the last
// line of standard output, one JSON object. README.md documents the
// workloads, the metrics and which layer each metric explains.
//
//	ibsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// instructions is the paper-scale per-workload trace length every workload
// runs at.
const instructions = 2_000_000

// metricDef names a metric and its unit; the lists below mirror
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// exhibits are the paper's tables and figures in paper order; every one has
// an experiments.<name>.busy_s metric.
var exhibits = []string{
	"table1", "table2", "table3", "table4", "figure1", "figure2",
	"table5", "figure3", "figure4", "figure5", "figure6",
	"table6", "table7", "table8", "figure7",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"synth.generate.minstr_s", "Minstr/s"},
		{"synth.generate.busy_s", "s"},
		{"synth.store.hit_ratio", "ratio"},
		{"synth.spill.busy_s", "s"},
		{"synth.spill.mb_s", "MB/s"},
		{"synth.seek.busy_s", "s"},
		{"trace.compact.minstr_s", "Minstr/s"},
		{"trace.compact.busy_s", "s"},
		{"trace.columnar.decode_minstr_s", "Minstr/s"},
		{"trace.columnar.bytes_per_instr", "B/instr"},
		{"vm.translate.minstr_s", "Minstr/s"},
		{"vm.translate.busy_s", "s"},
		{"cache.access.minstr_s", "Minstr/s"},
		{"cache.access.busy_s", "s"},
		{"fetch.blocking.minstr_s", "Minstr/s"},
		{"fetch.prefetch.minstr_s", "Minstr/s"},
		{"fetch.bypass.minstr_s", "Minstr/s"},
		{"fetch.stream.minstr_s", "Minstr/s"},
		{"sweep.exact.minstr_s", "Minstr/s"},
		{"sweep.exact.busy_s", "s"},
		{"sweep.sampled.minstr_s", "Minstr/s"},
		{"sweep.blocks.minstr_s", "Minstr/s"},
		{"sweep.seek.busy_s", "s"},
		{"replay.bank.minstr_s", "Minstr/s"},
		{"replay.bank.busy_s", "s"},
		{"replay.sampled.busy_s", "s"},
		{"replay.blocks.minstr_s", "Minstr/s"},
		{"replay.seek.busy_s", "s"},
	}
	for _, e := range exhibits {
		defs = append(defs, metricDef{"experiments." + e + ".busy_s", "s"})
	}
	return append(defs,
		metricDef{"server.overhead_ms", "ms"},
		metricDef{"server.busy_s", "s"},
		metricDef{"server.dedup_hits", "count"},
		metricDef{"server.rejected", "count"},
		metricDef{"server.tier.sampling", "count"},
		metricDef{"server.tier.columnar", "count"},
		metricDef{"server.tier.seek", "count"},
		metricDef{"server.degraded", "count"},
		metricDef{"process.cpu_s", "s"},
		metricDef{"process.alloc_mb", "MiB"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

// env is what a workload run gets: its parameters, the span recorder (off
// for untraced runs) and the start of the process.
type env struct {
	seed     uint64
	duration time.Duration
	traced   bool
	rec      *recorder
	// outDir holds everything the run writes.
	outDir string
}

// outcome is a workload run's result: the operation counts, the
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs), and
// human-readable lines for the log.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notef("FAILED: "+format, args...)
}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

// workloads are the named workloads; BENCHMARK.json says why each exists.
var workloads = []workload{
	{"paper-tables", runPaperTables},
	{"figure5", runFigure5},
	{"serve-hot", runServeHot},
	{"serve-spill", runServeSpill},
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("ibsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 0, "workload seed: fixes every input the run generates")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	startProbe := fs.Bool("start-probe", false, "exit at once (times process start)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *startProbe {
		return 0
	}
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ibsbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if _, err := os.Stat("paper_tables.txt"); err != nil {
		fmt.Fprintln(os.Stderr, "ibsbench: run from the repository root (paper_tables.txt not found)")
		return 2
	}
	e := &env{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		rec:      newRecorder(*trace == 1),
		outDir:   filepath.Join(".bench_build", "ibsbench"),
	}
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.seed))
		if err := e.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "ibsbench: writing spans: %v\n", err)
			return 1
		}
		out.notef("spans written to %s", path)
	}
	return report(w.name, e.seed, out, defs)
}

// report prints the human-readable lines and the final JSON object.
func report(name string, seed uint64, out *outcome, defs []metricDef) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	for _, n := range out.notes {
		fmt.Printf("%s: %s\n", name, n)
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "ibsbench: %s produced no value for %s\n", name, d.name)
			return 1
		}
		metrics[d.name] = metric{v, d.unit}
		fmt.Printf("%s: %-34s %16.6f %s\n", name, d.name, v, d.unit)
	}
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%s: %-34s %16.6f ratio (%d of %d ops, seed %d)\n", name, "failed_frac", frac, out.failed, out.attempted, seed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setupReps is how many times a run repeats its set-up; set-up time is the
// median.
const setupReps = 3

// medianSetUp runs setUp setupReps times and returns the median of process
// start plus one set-up. Process start is timed by running this binary with
// --start-probe, which exits at the top of main, after the runtime and every
// imported package have initialized.
func medianSetUp(setUp func() error) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, setupReps)
	for i := range times {
		t := time.Now()
		if err := exec.Command(exe, "--start-probe").Run(); err != nil {
			return 0, fmt.Errorf("timing process start: %w", err)
		}
		if err := setUp(); err != nil {
			return 0, err
		}
		times[i] = time.Since(t).Seconds()
	}
	return median(times), nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocMiB is the process's cumulative heap allocation.
func allocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// processMeter brackets the operation a traced run measures, for the
// process.* metrics.
type processMeter struct{ cpu, alloc float64 }

func startProcessMeter() processMeter { return processMeter{cpuSeconds(), allocMiB()} }

func (p processMeter) stop(m map[string]float64) {
	m["process.cpu_s"] = cpuSeconds() - p.cpu
	m["process.alloc_mb"] = allocMiB() - p.alloc
}

// layerMetrics derives the per-layer metrics from the recorded spans; every
// per-layer metric a workload does not exercise reads 0.
func layerMetrics(spans []span, m map[string]float64) {
	t := totals(spans)
	busy := func(name string) float64 { return t[name].self.Seconds() }
	rate := func(name string) float64 {
		if s := t[name].self.Seconds(); s > 0 {
			return float64(t[name].work) / s / 1e6
		}
		return 0
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	for _, layer := range []string{"synth.generate", "trace.compact", "vm.translate", "cache.access", "sweep.exact", "replay.bank"} {
		m[layer+".minstr_s"] = rate(layer)
		m[layer+".busy_s"] = busy(layer)
	}
	for _, layer := range []string{"fetch.blocking", "fetch.prefetch", "fetch.bypass", "fetch.stream", "sweep.sampled", "sweep.blocks", "replay.blocks"} {
		m[layer+".minstr_s"] = rate(layer)
	}
	m["trace.columnar.decode_minstr_s"] = rate("trace.columnar.decode")
	for _, layer := range []string{"synth.spill", "synth.seek", "sweep.seek", "replay.sampled", "replay.seek"} {
		m[layer+".busy_s"] = busy(layer)
	}
	if s := busy("synth.spill"); s > 0 {
		// Spill spans carry the bytes written as their work.
		m["synth.spill.mb_s"] = float64(t["synth.spill"].work) / s / 1e6
	}
	for _, e := range exhibits {
		m["experiments."+e+".busy_s"] = busy("experiments." + e)
	}
}

// shareLines lists each span name's share of all recorded self time,
// largest first, for the log.
func shareLines(spans []span, out *outcome) {
	t := totals(spans)
	var total time.Duration
	names := make([]string, 0, len(t))
	for n, v := range t {
		total += v.self
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t[names[i]].self > t[names[j]].self })
	for _, n := range names {
		if total > 0 {
			out.notef("self time %-28s %8.3fs %5.1f%% (%d spans)", n, t[n].self.Seconds(), 100*t[n].self.Seconds()/total.Seconds(), t[n].count)
		}
	}
}
