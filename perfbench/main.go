// Command perfbench is echelonflow's benchmark. It runs one workload in
// process, checks that the program's outputs are correct, and prints every
// metric by name with its unit; the last line of its output is one JSON
// object with the result. See README.md for the workloads, the metrics and
// the layer each metric belongs to.
//
//	perfbench --workload sim-wide --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"echelonflow/internal/sched"
)

// workload is one benchmark input set.
type workload struct {
	name string
	sim  *simSpec
	live *liveSpec
}

// workloads are the benchmark's inputs; README.md says why each exists.
// Job counts are whole generator cycles (cycleLen jobs), so every seed
// runs the same shapes.
var workloads = []workload{
	{name: "sim-wide", sim: &simSpec{mixes: 6, jobs: 18, iterations: 1, hosts: 2048, pool: 32}},
	{name: "sim-long", sim: &simSpec{mixes: 9, jobs: 4, iterations: 16, hosts: 32, pool: 8}},
	{name: "live-history", live: &liveSpec{minIter: 40, maxIter: 40, minJobs: 36}},
	{name: "live-churn", live: &liveSpec{minIter: 1, maxIter: 2, minJobs: 200, journal: true, admitLimit: 2}},
}

// endToEnd names the metrics every workload reports untraced, with units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"sim_events_per_s", "1/s"},
	{"flow_events_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"release_to_rate_p50_ms", "ms"},
	{"release_to_rate_p99_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer names the metrics every workload reports traced, with units.
var perLayer = [][2]string{
	{"sim.self_s", "s"}, {"sim.self_us_per_pass", "us"}, {"sim.passes", "count"}, {"sim.nodes", "count"},
	{"sched.schedule_calls", "count"}, {"sched.schedule_s", "s"},
	{"sched.schedule_p50_us", "us"}, {"sched.schedule_p99_us", "us"},
	{"sched.apply_calls", "count"}, {"sched.apply_p50_us", "us"}, {"sched.apply_p99_us", "us"},
	{"sched.delta_hit_ratio", "ratio"}, {"sched.plancache_hit_ratio", "ratio"},
	{"sched.flows_per_pass", "count"}, {"sched.allocs_per_call", "count"},
	{"sched.total_tardiness_s", "s"},
	{"fabric.maxmin_calls", "count"}, {"fabric.greedyfill_calls", "count"},
	{"fabric.bottleneck_calls", "count"}, {"fabric.residual_calls", "count"}, {"fabric.s", "s"},
	{"coordinator.self_us_per_event", "us"},
	{"coordinator.reschedule_p50_us", "us"}, {"coordinator.reschedule_p99_us", "us"},
	{"coordinator.reschedules", "count"}, {"coordinator.delta_applied", "count"},
	{"coordinator.delta_fallback", "count"}, {"coordinator.push_ratio", "ratio"},
	{"coordinator.entries_per_frame", "count"},
	{"wire.bytes_per_event", "B"}, {"wire.alloc_frames_per_event", "count"},
	{"wire.send_p50_us", "us"}, {"wire.recv_frames", "count"},
	{"journal.fsync_p50_us", "us"}, {"journal.fsync_p99_us", "us"},
	{"journal.bytes_per_event", "B"}, {"journal.snapshots", "count"},
	{"queue.build_p50_us", "us"}, {"queue.admit_p50_ms", "ms"}, {"queue.admit_p90_ms", "ms"},
	{"queue.admitted", "count"}, {"queue.rejected", "count"}, {"queue.retries", "count"},
	{"queue.depth_max", "count"},
	{"ddlt.build_s", "s"},
	{"runtime.alloc_kb_per_event", "KiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"trace_overhead", "%"},
}

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// work holds journals and span dumps.
	work string
	// mkSim and mkLive build the scheduler under test.
	mkSim, mkLive mkScheduler
}

// simProduction is the scheduler the simulator runs: EchelonMADD with
// backfill and the plan cache. The simulator never calls Apply, so the
// delta layer would only add its state capture.
func simProduction() sched.Scheduler {
	return sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	bases             map[string]int // sample count behind a percentile or ratio
	lines             []string       // extra human-readable findings
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), bases: make(map[string]int)}
}

func (r *report) set(name string, v float64)         { r.metrics[name] = v }
func (r *report) setN(name string, v float64, n int) { r.metrics[name] = v; r.bases[name] = n }
func (r *report) note(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one gate and records its failure.
func (r *report) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) fail(err error) {
	r.attempted++
	r.failed++
	r.problems = append(r.problems, err.Error())
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-wide, sim-long, live-history or live-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for journals and span dumps")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sim-wide|sim-long|live-history|live-churn, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		work: *work, mkSim: simProduction, mkLive: production}
	rep := run(cfg, *wl)
	if err := emit(os.Stdout, *wl, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		// The result line names the failures on stdout; stderr repeats
		// them for logs that keep only the error stream.
		for _, p := range rep.problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
		}
		os.Exit(1)
	}
}

// run measures a workload. A traced run spends a third of its time warming
// up untraced (a fresh process runs its first seconds slower), a third
// untraced and a third traced, and reports how much slower the traced third
// ran as trace_overhead.
func run(cfg config, wl workload) *report {
	measure := func(tr *tracer, d time.Duration) (*report, float64) {
		c := cfg
		c.seconds = d
		if wl.sim != nil {
			return measureSim(c, *wl.sim, tr)
		}
		return measureLive(c, *wl.live, tr)
	}
	if !cfg.trace {
		rep, _ := measure(nil, cfg.seconds)
		return rep
	}
	warm, _ := measure(nil, cfg.seconds/3)
	base, rate0 := measure(nil, cfg.seconds/3)
	tr := newTracer()
	rep, rate1 := measure(tr, cfg.seconds-2*(cfg.seconds/3))
	for _, r := range []*report{warm, base} {
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.problems = append(rep.problems, r.problems...)
	}
	if rate0 > 0 && rate1 > 0 {
		rep.set("trace_overhead", 100*(rate0/rate1-1))
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.tsv", wl.name, cfg.seed))
	if err := tr.write(path); err != nil {
		rep.fail(fmt.Errorf("write spans: %w", err))
	} else {
		rep.note("spans written to %s", path)
	}
	return rep
}

// emit prints the human-readable table and, last, the JSON result line.
func emit(w io.Writer, wl workload, cfg config, rep *report) error {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%v trace=%v\n", wl.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	out := make(map[string]interface{}, len(names))
	line := func(name, unit string) {
		base := ""
		if n, ok := rep.bases[name]; ok {
			base = fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", name, rep.metrics[name], unit, base)
	}
	for _, nu := range names {
		line(nu[0], nu[1])
		out[nu[0]] = map[string]interface{}{"value": rep.metrics[nu[0]], "unit": nu[1]}
	}
	// The rest of what the run measured, for reading; only names go to JSON.
	for _, nu := range append(append([][2]string(nil), endToEnd...), perLayer...) {
		if _, printed := out[nu[0]]; !printed {
			if _, ok := rep.metrics[nu[0]]; ok {
				line(nu[0], nu[1])
			}
		}
	}
	for _, l := range rep.lines {
		fmt.Fprintln(w, "  "+l)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g (%d of %d)\n", "failed_frac", frac, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
	b, err := json.Marshal(map[string]interface{}{
		"correct": rep.failed == 0, "attempted": max(rep.attempted, 1), "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// medianQuantile returns the median over groups of each group's
// q-quantile. Groups are rounds or time slices, so one that a busy machine
// slowed does not set the tail.
func medianQuantile(groups [][]time.Duration, q float64) time.Duration {
	qs := make([]time.Duration, 0, len(groups))
	for _, g := range groups {
		qs = append(qs, quantile(g, q))
	}
	return quantile(qs, 0.5)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the runtime's allocation and GC activity over a window.
type memDelta struct {
	bytes  uint64
	cycles uint32
	pause  time.Duration
}

// liveHeapMB returns the live heap in MB (2^20 bytes). The second collection frees what
// the first only moved to sync.Pool victim caches, which are not live state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(memNow().HeapAlloc) / (1 << 20)
}

func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{bytes: after.TotalAlloc - before.TotalAlloc, cycles: after.NumGC - before.NumGC,
		pause: time.Duration(after.PauseTotalNs - before.PauseTotalNs)}
}

func (r *report) setRuntime(m memDelta, events int) {
	r.setN("runtime.alloc_kb_per_event", ratio(float64(m.bytes)/1024, float64(events)), events)
	r.set("runtime.gc_cycles", float64(m.cycles))
	r.set("runtime.gc_pause_ms", ms(m.pause))
}

// bits formats a float exactly, for tardiness comparisons.
func bits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
