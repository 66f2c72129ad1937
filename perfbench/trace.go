package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
)

// span is one timed call at a layer boundary. Its name is "<layer>.<op>";
// parent 0 marks a root.
type span struct {
	name       string
	id, parent int64
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the length of a traced run. A nil
// *tracer records nothing, which is the untraced configuration.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  int64
	// roots maps a group ID to the outstanding live flow-event root span
	// whose event touched it, so scheduler calls find their cause.
	roots map[string]int64
	// cur is the scheduler span in progress: fabric calls nest under it.
	cur int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: make(map[string]int64)}
}

// at converts a wall instant to tracer time.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.epoch) }

// reserve allocates a span ID before the span ends, so children started
// inside it can name it as parent.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span. An id of 0 allocates a fresh one.
func (t *tracer) record(name string, id, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: t.at(start), end: t.at(end)})
	return id
}

// open marks root as the outstanding event of the given groups.
func (t *tracer) open(root int64, groups ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, g := range groups {
		t.roots[g] = root
	}
}

// close forgets the groups' outstanding event.
func (t *tracer) close(groups ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, g := range groups {
		delete(t.roots, g)
	}
}

// rootOf returns the outstanding event of the first group that has one.
func (t *tracer) rootOf(groups []string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, g := range groups {
		if r, ok := t.roots[g]; ok {
			return r
		}
	}
	return 0
}

func (t *tracer) setCur(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

func (t *tracer) current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// selfTimes sums self time by span name: a span's duration minus the part
// of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.name] += selfTime(s, kids[s.id])
	}
	return out
}

// layerTimes sums self time by layer, the span name's prefix. Set-up spans
// form their own layer, "setup".
func layerTimes(self map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += d
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return s.end - s.start
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	covered := time.Duration(0)
	lo, hi := s.start, s.start
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b <= a {
			continue
		}
		if a > hi {
			covered += hi - lo
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	covered += hi - lo
	return s.end - s.start - covered
}

// write dumps every span as tab-separated name, id, parent, start and end
// in nanoseconds since the run's first span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedStats is what the benchmark's scheduler wrapper measures.
type schedStats struct {
	schedDur, applyDur []time.Duration
	applyOK            int
	flows              int    // snapshot flows summed over calls
	allocs             uint64 // heap objects allocated during calls
	// stepLat holds, for every flow the simulator released, the wall time
	// from the end of the previous pass to the end of the pass that first
	// rated it: the simulator's release-to-rate latency.
	stepLat []time.Duration
}

// timedSched wraps a scheduler and times every call into it from outside.
type timedSched struct {
	inner sched.Scheduler
	tr    *tracer
	// sim enables release-to-rate accounting for the simulator's event loop.
	sim bool

	mu       sync.Mutex
	st       schedStats
	stepFrom time.Time
	prevRoot int64 // root of the last Apply that fell back
	prevIDs  map[string]struct{}
	curIDs   map[string]struct{}
}

// wrapSched returns inner wrapped so that the simulator and coordinator
// keep their code paths: the plan cache, the incremental Apply/Prime API
// and the degrade controls stay reachable when inner has them.
func wrapSched(inner sched.Scheduler, tr *tracer, sim bool) (sched.Scheduler, *timedSched) {
	t := &timedSched{inner: inner, tr: tr, sim: sim,
		prevIDs: make(map[string]struct{}), curIDs: make(map[string]struct{})}
	ds, isDelta := inner.(sched.DeltaScheduler)
	dc, isDegrade := inner.(sched.DegradeControl)
	switch {
	case isDelta && isDegrade:
		return struct {
			*timedDelta
			sched.DegradeControl
		}{&timedDelta{t, ds}, dc}, t
	case isDelta:
		return &timedDelta{t, ds}, t
	case isDegrade:
		return struct {
			*timedSched
			sched.DegradeControl
		}{t, dc}, t
	}
	return t, t
}

// startStep marks the start of the simulator's first event-loop step.
func (t *timedSched) startStep() {
	t.mu.Lock()
	t.stepFrom = time.Now()
	t.mu.Unlock()
}

func (t *timedSched) stats() schedStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) PlanCache() *sched.PlanCache {
	if pc, ok := t.inner.(interface{ PlanCache() *sched.PlanCache }); ok {
		return pc.PlanCache()
	}
	return nil
}

// heapObjects reads the process's cumulative heap allocation count.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (t *timedSched) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	var parent, id int64
	var a0 uint64
	if t.tr != nil {
		t.mu.Lock()
		parent = t.prevRoot
		t.prevRoot = 0
		t.mu.Unlock()
		if t.sim {
			parent = t.tr.reserve()
		}
		id = t.tr.reserve()
		t.tr.setCur(id)
		a0 = heapObjects()
	}
	t0 := time.Now()
	rates, err := t.inner.Schedule(snap, net)
	t1 := time.Now()
	t.tr.setCur(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tr != nil {
		t.st.allocs += heapObjects() - a0
		t.tr.record("sched.schedule", id, parent, t0, t1)
		if t.sim {
			t.tr.record("sim.step", parent, 0, t.stepFrom, t1)
		}
	}
	t.st.schedDur = append(t.st.schedDur, t1.Sub(t0))
	t.st.flows += len(snap.Flows)
	if t.sim {
		clear(t.curIDs)
		lat := t1.Sub(t.stepFrom)
		for _, fs := range snap.Flows {
			t.curIDs[fs.Flow.ID] = struct{}{}
			if _, seen := t.prevIDs[fs.Flow.ID]; !seen {
				t.st.stepLat = append(t.st.stepLat, lat)
			}
		}
		t.prevIDs, t.curIDs = t.curIDs, t.prevIDs
		t.stepFrom = t1
	}
	return rates, err
}

// timedDelta is a timedSched over a DeltaScheduler.
type timedDelta struct {
	*timedSched
	delta sched.DeltaScheduler
}

func (t *timedDelta) Apply(snap *sched.Snapshot, net fabric.Fabric, d sched.Delta) (map[string]unit.Rate, bool, error) {
	var parent, id int64
	var a0 uint64
	if t.tr != nil {
		parent = t.tr.rootOf(d.Groups)
		id = t.tr.reserve()
		t.tr.setCur(id)
		a0 = heapObjects()
	}
	t0 := time.Now()
	rates, ok, err := t.delta.Apply(snap, net, d)
	t1 := time.Now()
	t.tr.setCur(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tr != nil {
		t.st.allocs += heapObjects() - a0
		t.tr.record("sched.apply", id, parent, t0, t1)
		if !ok {
			t.prevRoot = parent // the full pass that follows serves the same event
		}
	}
	t.st.applyDur = append(t.st.applyDur, t1.Sub(t0))
	t.st.flows += len(snap.Flows)
	if ok {
		t.st.applyOK++
	}
	return rates, ok, err
}

func (t *timedDelta) Prime(snap *sched.Snapshot, net fabric.Fabric, rates map[string]unit.Rate) {
	t.delta.Prime(snap, net, rates)
}

// fabricStats counts and times the fabric's whole-allocation calls.
type fabricStats struct {
	maxmin, greedy, bottleneck, residual int
	busy                                 time.Duration
}

// timedFabric wraps a fabric in traced runs. Only the coarse calls are
// timed; per-link accessors forward untouched, since timing them would cost
// more than they do.
type timedFabric struct {
	fabric.Fabric
	tr *tracer

	mu sync.Mutex
	st fabricStats
}

func (f *timedFabric) note(name string, count *int, t0 time.Time) {
	t1 := time.Now()
	f.tr.record(name, 0, f.tr.current(), t0, t1)
	f.mu.Lock()
	*count++
	f.st.busy += t1.Sub(t0)
	f.mu.Unlock()
}

func (f *timedFabric) stats() fabricStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *timedFabric) MaxMin(reqs []fabric.Request) (map[string]unit.Rate, error) {
	t0 := time.Now()
	defer f.note("fabric.maxmin", &f.st.maxmin, t0)
	return f.Fabric.MaxMin(reqs)
}

func (f *timedFabric) GreedyFill(reqs []fabric.Request) (map[string]unit.Rate, error) {
	t0 := time.Now()
	defer f.note("fabric.greedyfill", &f.st.greedy, t0)
	return f.Fabric.GreedyFill(reqs)
}

func (f *timedFabric) BottleneckTime(vols []fabric.VolumeDemand) (unit.Time, error) {
	t0 := time.Now()
	defer f.note("fabric.bottleneck", &f.st.bottleneck, t0)
	return f.Fabric.BottleneckTime(vols)
}

func (f *timedFabric) NewResidual() *fabric.Residual {
	t0 := time.Now()
	defer f.note("fabric.residual", &f.st.residual, t0)
	return f.Fabric.NewResidual()
}
