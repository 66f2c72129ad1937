package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/wire"
)

// The live workloads' fixed shape: two sessions (one per CPU of the
// machine the benchmark was built on) on a 16-host fabric, each keeping up
// to window released, unfinished flows. waitLimit bounds every wait for the
// coordinator: a release without a rate, or a job without a decision,
// fails the run instead of hanging it.
const (
	liveHosts = 16
	sessions  = 2
	window    = 8
	waitLimit = 10 * time.Second
)

// Release-to-rate percentiles are taken per slice of the window and their
// median reported. A slice needs sliceMin releases to hold at least ten
// samples beyond its p99.
const (
	sliceLen = 2 * time.Second
	sliceMin = 1000
)

// liveSpec sizes one live workload: an in-process coordinator configured as
// `echelon-coordinator -queue -admin` (plus -journal when journal is set)
// and sessions driving jobs to departure over loopback TCP.
type liveSpec struct {
	// minIter..maxIter bounds each job's iteration count.
	minIter, maxIter int
	// minJobs is the least number of jobs a run completes, whatever the
	// time budget.
	minJobs int
	journal bool
	// admitLimit caps concurrently admitted jobs (0 unlimited).
	admitLimit int
}

// liveEnv is one deployed coordinator with its connected sessions.
type liveEnv struct {
	coord   *coordinator.Coordinator
	reg     *telemetry.Registry
	ts      *timedSched
	fab     *timedFabric
	dir     string
	cancel  context.CancelFunc
	served  chan error
	clients []*client
}

// mkScheduler builds the scheduler a workload deploys; tests substitute a
// failing one.
type mkScheduler func() sched.Scheduler

// production is the scheduler `echelon-coordinator` runs by default:
// EchelonMADD with backfill and the plan cache, under the incremental delta
// path.
func production() sched.Scheduler {
	return sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()})
}

// liveOptions is the coordinator configuration of a live workload.
func liveOptions(spec liveSpec, net fabric.Fabric, s sched.Scheduler) coordinator.Options {
	return coordinator.Options{
		Net: net, Scheduler: s,
		SessionTimeout: 30 * time.Second, SnapshotEvery: 256,
		Queue: queue.New(queue.Options{Placer: queue.Spread{}, Order: queue.FIFO{},
			MaxJobs: spec.admitLimit}),
		Metrics: telemetry.NewRegistry(),
		Events:  telemetry.NewEventLog(telemetry.DefaultEventCapacity),
		Logf:    log.New(os.Stderr, "", 0).Printf,
	}
}

// deploy builds the coordinator, starts serving on a loopback port and
// dials the sessions. Everything it starts is stopped by teardown.
func deploy(spec liveSpec, workDir string, mk mkScheduler, tr *tracer) (*liveEnv, error) {
	t0 := time.Now()
	net0 := liveFabric()
	env := &liveEnv{}
	var nf fabric.Fabric = net0
	s := mk()
	if tr != nil {
		env.fab = &timedFabric{Fabric: net0, tr: tr}
		nf = env.fab
		s, env.ts = wrapSched(s, tr, false)
	}
	opts := liveOptions(spec, nf, s)
	env.reg = opts.Metrics
	var err error
	if spec.journal {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		if env.dir, err = os.MkdirTemp(workDir, "journal-"); err != nil {
			return nil, err
		}
		env.coord, err = coordinator.Restore(opts, env.dir)
	} else {
		env.coord, err = coordinator.New(opts)
	}
	if err != nil {
		env.removeDir()
		return nil, err
	}
	t1 := time.Now()
	tr.record("setup.coordinator", 0, 0, t0, t1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.coord.Close()
		env.removeDir()
		return nil, err
	}
	t2 := time.Now()
	tr.record("setup.listen", 0, 0, t1, t2)
	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	env.served = make(chan error, 1)
	go func() { env.served <- env.coord.Serve(ctx, ln) }()
	for i := 0; i < sessions; i++ {
		c, err := dial(ln.Addr().String(), fmt.Sprintf("tenant%d", i), tr)
		if err != nil {
			env.teardown()
			return nil, err
		}
		env.clients = append(env.clients, c)
	}
	tr.record("setup.dial", 0, 0, t2, time.Now())
	return env, nil
}

// liveFabric is the coordinator's big-switch fabric.
func liveFabric() *fabric.Network {
	names := make([]string, liveHosts)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, names...)
	return net
}

func (env *liveEnv) removeDir() {
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

// teardown closes the sessions, stops Serve, waits for every goroutine the
// deployment started and closes the journal. The journal directory stays
// for the restore check; removeDir deletes it.
func (env *liveEnv) teardown() error {
	for _, c := range env.clients {
		c.close()
	}
	env.cancel()
	err := <-env.served
	if cerr := env.coord.Close(); err == nil {
		err = cerr
	}
	return err
}

// countConn counts a connection's bytes and notes when data last arrived.
type countConn struct {
	net.Conn
	in, out  atomic.Int64
	lastRead time.Time // read side only: touched by the reader goroutine
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(int64(n))
		c.lastRead = time.Now()
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// client is one tenant session speaking the v4 binary wire.
type client struct {
	name  string
	conn  *countConn
	codec *wire.Codec
	tr    *tracer

	// epoch is the start of the timed window.
	epoch time.Time

	mu       sync.Mutex
	want     string // flow awaiting its first rate
	wantRoot int64
	gotRate  chan time.Time // receipt of want's rate; buffered, one wait at a time

	updates chan wire.JobUpdate
	rejects chan wire.Error
	readErr chan error
	quit    chan struct{}
	done    chan struct{}

	// Reader-goroutine counters, read after done is closed.
	frames, allocFrames, entries int

	sendDur []time.Duration
}

func dial(addr, name string, tr *tracer) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: conn}
	c := &client{
		name: name, conn: cc, codec: wire.NewCodec(cc), tr: tr,
		gotRate: make(chan time.Time, 1),
		// A session has at most one job in flight, so its updates are
		// admitted and departed plus stale ones; 16 never fills.
		updates: make(chan wire.JobUpdate, 16),
		rejects: make(chan wire.Error, 16),
		readErr: make(chan error, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	hello := wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: name, Version: wire.ProtocolVersion}}
	if err := c.codec.Send(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	// The hello travels in JSON framing; everything after it is binary.
	c.codec.EnableBinary()
	go c.readLoop()
	return c, nil
}

func (c *client) close() {
	close(c.quit)
	c.conn.Close()
	<-c.done
}

func (c *client) readLoop() {
	defer close(c.done)
	for {
		t0 := time.Now()
		msg, err := c.codec.Recv()
		t1 := time.Now()
		if err != nil {
			c.readErr <- err
			return
		}
		c.frames++
		switch msg.Type {
		case wire.TypeAllocation:
			c.allocFrames++
			c.entries += len(msg.Allocation.Rates)
			c.mu.Lock()
			if _, ok := msg.Allocation.Rates[c.want]; ok && c.want != "" {
				c.want = ""
				c.gotRate <- t1
				if c.tr != nil {
					c.tr.record("wire.recv", 0, c.wantRoot, later(t0, c.conn.lastRead), t1)
				}
			}
			c.mu.Unlock()
		case wire.TypeJobUpdate:
			select {
			case c.updates <- *msg.JobUpdate:
			case <-c.quit:
				return
			}
		case wire.TypeError:
			if msg.Error.Code == "" {
				c.readErr <- fmt.Errorf("coordinator: %s", msg.Error.Msg)
				return
			}
			select {
			case c.rejects <- *msg.Error:
			case <-c.quit:
				return
			}
		}
	}
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// send times one Send under the given root span.
func (c *client) send(m wire.Message, root int64) error {
	t0 := time.Now()
	err := c.codec.Send(m)
	t1 := time.Now()
	c.sendDur = append(c.sendDur, t1.Sub(t0))
	c.tr.record("wire.send", 0, root, t0, t1)
	return err
}

// liveStats is what one session measured in the timed window.
type liveStats struct {
	submitted, admitted, rejected, departed, retries int
	events, rootEvents, releases, missing            int
	depthMax                                         float64
	releaseLat, admitLat, buildDur                   []time.Duration
	releaseAt                                        []time.Duration // send time of each releaseLat sample, from the epoch
	departedIDs                                      []string
	lastDeparture                                    time.Time
	heap                                             []float64 // MB at each checkpoint
	err                                              error
}

// heapCycles is how many cycles, from the first, record the live heap.
// Later checkpoints would also hold more of the benchmark's own samples.
const heapCycles = 5

// runJobs takes jobs from the queue one at a time and drives each to
// departure. Just before the first job of a cycle, the cycle's largest,
// finishes its last flow, it records the live heap: the point where one
// job's history is largest.
func (c *client) runJobs(spec liveSpec, jobs *jobQueue, reg *telemetry.Registry) *liveStats {
	st := &liveStats{}
	for {
		js, idx, ok := jobs.take()
		if !ok {
			return st
		}
		js.Tenant = c.name
		hosts, err := c.submit(spec, js, reg, st)
		if err != nil {
			st.err = err
			return st
		}
		if hosts == nil {
			st.rejected++
			continue
		}
		t0 := time.Now()
		w, err := queue.Build(js, hosts)
		st.buildDur = append(st.buildDur, time.Since(t0))
		if err != nil {
			st.err = fmt.Errorf("compile admitted job %s: %w", js.ID, err)
			return st
		}
		lastFinish := func() {
			if idx%cycleLen == 0 && idx < heapCycles*cycleLen {
				st.heap = append(st.heap, liveHeapMB())
			}
		}
		if err := c.driveJob(spec, w.Graph, lastFinish, st); err != nil {
			st.err = fmt.Errorf("job %s: %w", js.ID, err)
			return st
		}
		if err := c.awaitDeparture(spec, js.ID, st); err != nil {
			st.err = err
			return st
		}
	}
}

// submit sends the job and waits for its admission, retrying pushback. It
// returns nil hosts for a rejected job.
func (c *client) submit(spec liveSpec, js wire.JobSpec, reg *telemetry.Registry, st *liveStats) ([]string, error) {
	st.submitted++
	t0 := time.Now()
	for {
		if err := c.send(wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: js}}, 0); err != nil {
			return nil, err
		}
		timer := time.NewTimer(waitLimit)
		decided, hosts, err := c.awaitDecision(js.ID, timer.C)
		waited := time.Since(t0)
		timer.Stop()
		if d := gaugeValue(reg, coordinator.MetricQueueDepth); d > st.depthMax {
			st.depthMax = d
		}
		if err != nil {
			return nil, err
		}
		if decided {
			if hosts != nil {
				st.admitted++
				st.admitLat = append(st.admitLat, waited)
			}
			return hosts, nil
		}
		st.retries++
		time.Sleep(50 * time.Millisecond)
	}
}

// awaitDecision waits for the job's admission or rejection; decided is
// false on throttle or queue-full pushback.
func (c *client) awaitDecision(jobID string, timeout <-chan time.Time) (decided bool, hosts []string, err error) {
	for {
		select {
		case u := <-c.updates:
			if u.JobID != jobID {
				continue
			}
			switch u.Status {
			case wire.JobAdmitted:
				return true, u.Hosts, nil
			case wire.JobRejected:
				return true, nil, nil
			}
		case e := <-c.rejects:
			if e.Code == wire.ErrCodeBadJob {
				return true, nil, nil
			}
			return false, nil, nil
		case err := <-c.readErr:
			return false, nil, err
		case <-timeout:
			return false, nil, fmt.Errorf("job %s: no admission decision", jobID)
		}
	}
}

// flowRef is a released flow the session has not finished yet.
type flowRef struct{ id, group string }

func flowEvent(f flowRef, event string) wire.Message {
	return wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &wire.FlowEvent{GroupID: f.group, FlowID: f.id, Event: event}}
}

// driveJob runs the job's flow lifecycle as a closed loop: each release
// waits for its rate, at most window released flows stay unfinished,
// and the oldest finishes when the window is full.
func (c *client) driveJob(spec liveSpec, g *dag.Graph, lastFinish func(), st *liveStats) error {
	var open []flowRef
	for _, n := range g.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		f := flowRef{id: n.ID, group: n.Group}
		if f.group == "" {
			f.group = "flow:" + n.ID
		}
		root := c.tr.reserve()
		start := time.Now()
		var old []string
		st.rootEvents++
		if len(open) == window {
			st.rootEvents++
			c.tr.open(root, open[0].group)
			old = append(old, open[0].group)
			if err := c.send(flowEvent(open[0], wire.EventFinished), root); err != nil {
				return err
			}
			open = open[1:]
			st.events++
		}
		c.tr.open(root, f.group)
		c.mu.Lock()
		c.want, c.wantRoot = f.id, root
		c.mu.Unlock()
		sent := time.Now()
		if err := c.send(flowEvent(f, wire.EventReleased), root); err != nil {
			return err
		}
		st.events++
		st.releases++
		timer := time.NewTimer(waitLimit)
		select {
		case at := <-c.gotRate:
			st.releaseLat = append(st.releaseLat, at.Sub(sent))
			st.releaseAt = append(st.releaseAt, sent.Sub(c.epoch))
			c.tr.record("coordinator.event", root, 0, start, at)
		case err := <-c.readErr:
			timer.Stop()
			st.missing++
			return err
		case <-timer.C:
			st.missing++
			return fmt.Errorf("release of %s got no rate within %v", f.id, waitLimit)
		}
		timer.Stop()
		c.tr.close(append(old, f.group)...)
		open = append(open, f)
	}
	for i, f := range open {
		if i == len(open)-1 {
			lastFinish()
		}
		if err := c.send(flowEvent(f, wire.EventFinished), 0); err != nil {
			return err
		}
		st.events++
	}
	return nil
}

// awaitDeparture waits for the job's departure push.
func (c *client) awaitDeparture(spec liveSpec, jobID string, st *liveStats) error {
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
	for {
		select {
		case u := <-c.updates:
			if u.JobID == jobID && u.Status == wire.JobDeparted {
				st.departed++
				st.departedIDs = append(st.departedIDs, jobID)
				st.lastDeparture = time.Now()
				return nil
			}
		case err := <-c.readErr:
			return err
		case <-timer.C:
			return fmt.Errorf("job %s never departed", jobID)
		}
	}
}

// gaugeValue sums a registry family's series (0 when absent).
func gaugeValue(reg *telemetry.Registry, name string) float64 {
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			v := 0.0
			for _, s := range f.Series {
				v += s.Value
			}
			return v
		}
	}
	return 0
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// jobQueue hands the run's jobs to whichever session is free. Jobs come
// in whole cycles of the generator, each ordered largest first, and the
// queue hands out no more once the deadline has passed and at least minJobs
// have gone out, at the end of a cycle.
type jobQueue struct {
	spec     liveSpec
	deadline time.Time

	mu    sync.Mutex
	gen   *jobGen
	cycle []wire.JobSpec
	taken int
}

func newJobQueue(seed int64, spec liveSpec) *jobQueue {
	q := &jobQueue{spec: spec, gen: newJobGen(seed)}
	q.refill()
	return q
}

func (q *jobQueue) refill() {
	for i := 0; i < cycleLen; i++ {
		iter := q.gen.deal("iterations", q.spec.minIter, q.spec.maxIter)
		q.cycle = append(q.cycle, q.gen.next("", "", iter))
	}
	largestFirst(q.cycle)
}

// take returns the next job and its index in the run.
func (q *jobQueue) take() (wire.JobSpec, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.cycle) == 0 {
		if q.taken >= q.spec.minJobs && time.Now().After(q.deadline) {
			return wire.JobSpec{}, 0, false
		}
		q.refill()
	}
	js := q.cycle[0]
	q.cycle = q.cycle[1:]
	q.taken++
	return js, q.taken - 1, true
}

// setupReps is how many times a live run deploys the coordinator; setup_s
// is their median, and the last deployment is the one measured.
const setupReps = 25

// measureLive deploys the coordinator, drives every session's jobs until
// the time is up, and checks the outcome. It returns the report and the
// flow-event rate.
func measureLive(cfg config, spec liveSpec, tr *tracer) (*report, float64) {
	rep := newReport()
	var setups []time.Duration
	var env *liveEnv
	var jobs *jobQueue
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		jobs = newJobQueue(cfg.seed, spec)
		var dtr *tracer
		if i == setupReps-1 {
			dtr = tr
		}
		e, err := deploy(spec, cfg.work, cfg.mkLive, dtr)
		if err != nil {
			rep.fail(fmt.Errorf("deploy: %w", err))
			return rep, 0
		}
		setups = append(setups, time.Since(t0))
		if i < setupReps-1 {
			if err := e.teardown(); err != nil {
				rep.fail(fmt.Errorf("teardown: %w", err))
			}
			e.removeDir()
			continue
		}
		env = e
	}
	defer env.removeDir()

	reschedules0 := gaugeValue(env.reg, coordinator.MetricReschedules)
	mem := memNow()
	start := time.Now()
	jobs.deadline = start.Add(cfg.seconds)
	for _, c := range env.clients {
		c.epoch = start
	}
	stats := make([]*liveStats, sessions)
	var wg sync.WaitGroup
	for i, c := range env.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			stats[i] = c.runJobs(spec, jobs, env.reg)
		}(i, c)
	}
	wg.Wait()
	md := memSince(mem)
	reschedules := gaugeValue(env.reg, coordinator.MetricReschedules) - reschedules0

	var all liveStats
	var end time.Time
	for i, st := range stats {
		if st.err != nil {
			rep.fail(fmt.Errorf("session %d: %w", i, st.err))
		}
		all.submitted += st.submitted
		all.admitted += st.admitted
		all.rejected += st.rejected
		all.departed += st.departed
		all.retries += st.retries
		all.events += st.events
		all.rootEvents += st.rootEvents
		all.releases += st.releases
		all.missing += st.missing
		all.depthMax = max(all.depthMax, st.depthMax)
		all.releaseLat = append(all.releaseLat, st.releaseLat...)
		all.releaseAt = append(all.releaseAt, st.releaseAt...)
		all.departedIDs = append(all.departedIDs, st.departedIDs...)
		all.admitLat = append(all.admitLat, st.admitLat...)
		all.buildDur = append(all.buildDur, st.buildDur...)
		all.heap = append(all.heap, st.heap...)
		if st.lastDeparture.After(end) {
			end = st.lastDeparture
		}
	}
	window := end.Sub(start)

	// Gates: every job admitted and departed, every release rated, and the
	// coordinator's own counters clean once the last job has left.
	rep.attempted += all.submitted + all.releases
	rep.failed += all.rejected + (all.admitted - all.departed) + all.missing
	if all.rejected+all.admitted-all.departed+all.missing > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d jobs submitted, %d admitted, %d rejected, %d departed; %d releases without a rate",
			all.submitted, all.admitted, all.rejected, all.departed, all.missing))
	}
	for _, g := range []struct {
		name string
		want float64
	}{
		{coordinator.MetricRescheduleErrors, 0},
		{coordinator.MetricQueueDepth, 0},
		{coordinator.MetricJobsRunning, 0},
	} {
		v := gaugeValue(env.reg, g.name)
		rep.check(v == g.want, "%s = %v at the end, want %v", g.name, v, g.want)
	}
	journalBytes := dirBytes(env.dir)
	var cl clientTotals
	for _, c := range env.clients {
		cl.add(c)
	}
	if err := env.teardown(); err != nil {
		rep.fail(fmt.Errorf("teardown: %w", err))
	}
	for _, c := range env.clients {
		cl.addRead(c)
	}
	if spec.journal {
		opts := liveOptions(spec, liveFabric(), production())
		c, err := coordinator.Restore(opts, env.dir)
		if err != nil {
			rep.fail(fmt.Errorf("restore of the journal: %w", err))
		} else {
			pending, running := c.QueueDepth()
			var held []string
			for _, id := range all.departedIDs {
				if status, _, ok := c.JobStatus(id); ok {
					held = append(held, id+" "+status)
				}
			}
			rep.check(pending == 0 && running == 0 && len(held) == 0,
				"restored coordinator holds %d pending and %d running jobs; departed before the restore but held by it: %v",
				pending, running, held)
			if err := c.Close(); err != nil {
				rep.fail(fmt.Errorf("close restored coordinator: %w", err))
			}
		}
	}

	secs := window.Seconds()
	rate := ratio(float64(all.events), secs)
	sort.Float64s(all.heap)
	heap := 0.0
	if len(all.heap) > 0 {
		heap = all.heap[(len(all.heap)-1)/2]
	}
	rep.setN("setup_s", quantile(setups, 0.5).Seconds(), len(setups))
	rep.setN("sim_events_per_s", ratio(reschedules, secs), int(reschedules))
	rep.setN("flow_events_per_s", rate, all.events)
	rep.setN("jobs_per_s", ratio(float64(all.departed), secs), all.departed)
	slices := releaseSlices(all.releaseLat, all.releaseAt)
	rep.setN("release_to_rate_p50_ms", ms(medianQuantile(slices, 0.5)), len(all.releaseLat))
	rep.setN("release_to_rate_p99_ms", ms(medianQuantile(slices, 0.99)), len(all.releaseLat))
	rep.setN("heap_mb", heap, len(all.heap))

	reg := env.reg
	rep.setN("queue.admit_p50_ms", ms(quantile(all.admitLat, 0.5)), len(all.admitLat))
	rep.setN("queue.admit_p90_ms", ms(quantile(all.admitLat, 0.9)), len(all.admitLat))
	rep.setN("queue.build_p50_us", us(quantile(all.buildDur, 0.5)), len(all.buildDur))
	rep.set("queue.admitted", gaugeValue(reg, coordinator.MetricJobsAdmitted))
	rep.set("queue.rejected", gaugeValue(reg, coordinator.MetricJobsRejected))
	rep.set("queue.retries", float64(all.retries))
	rep.set("queue.depth_max", all.depthMax)
	rep.set("ddlt.build_s", sum(all.buildDur).Seconds())
	resched := histOf(reg, coordinator.MetricRescheduleLat)
	rep.setN("coordinator.reschedule_p50_us", resched.quantile(0.5)*1e6, int(resched.count))
	rep.setN("coordinator.reschedule_p99_us", resched.quantile(0.99)*1e6, int(resched.count))
	rep.set("coordinator.reschedules", gaugeValue(reg, coordinator.MetricReschedules))
	rep.set("coordinator.delta_applied", gaugeValue(reg, coordinator.MetricDeltaApplied))
	rep.set("coordinator.delta_fallback", gaugeValue(reg, coordinator.MetricDeltaFallback))
	computed := gaugeValue(reg, coordinator.MetricRatesComputed)
	rep.setN("coordinator.push_ratio", ratio(gaugeValue(reg, coordinator.MetricRatesPushed), computed), int(computed))
	rep.setN("coordinator.entries_per_frame", ratio(float64(cl.entries), float64(cl.allocFrames)), cl.allocFrames)
	rep.setN("wire.bytes_per_event", ratio(float64(cl.bytes), float64(all.events)), all.events)
	rep.setN("wire.alloc_frames_per_event", ratio(float64(cl.allocFrames), float64(all.events)), all.events)
	rep.setN("wire.send_p50_us", us(quantile(cl.sendDur, 0.5)), len(cl.sendDur))
	rep.set("wire.recv_frames", float64(cl.frames))
	fsync := histOf(reg, coordinator.MetricJournalFsyncLat)
	rep.setN("journal.fsync_p50_us", fsync.quantile(0.5)*1e6, int(fsync.count))
	rep.setN("journal.fsync_p99_us", fsync.quantile(0.99)*1e6, int(fsync.count))
	rep.setN("journal.bytes_per_event", ratio(float64(journalBytes), float64(all.events)), all.events)
	rep.set("journal.snapshots", gaugeValue(reg, coordinator.MetricJournalSnapshots))
	rep.setRuntime(md, all.events)
	if env.ts != nil {
		st := env.ts.stats()
		cs := env.ts.PlanCache().Stats()
		calls := len(st.schedDur) + len(st.applyDur)
		rep.set("sched.schedule_calls", float64(len(st.schedDur)))
		rep.set("sched.schedule_s", sum(st.schedDur).Seconds())
		rep.setN("sched.schedule_p50_us", us(quantile(st.schedDur, 0.5)), len(st.schedDur))
		rep.setN("sched.schedule_p99_us", us(quantile(st.schedDur, 0.99)), len(st.schedDur))
		rep.set("sched.apply_calls", float64(len(st.applyDur)))
		rep.setN("sched.apply_p50_us", us(quantile(st.applyDur, 0.5)), len(st.applyDur))
		rep.setN("sched.apply_p99_us", us(quantile(st.applyDur, 0.99)), len(st.applyDur))
		rep.setN("sched.delta_hit_ratio", ratio(float64(st.applyOK), float64(len(st.applyDur))), len(st.applyDur))
		rep.setN("sched.plancache_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), int(cs.Hits+cs.Misses))
		rep.setN("sched.flows_per_pass", ratio(float64(st.flows), float64(calls)), calls)
		rep.setN("sched.allocs_per_call", ratio(float64(st.allocs), float64(calls)), calls)
		fs := env.fab.stats()
		rep.set("fabric.maxmin_calls", float64(fs.maxmin))
		rep.set("fabric.greedyfill_calls", float64(fs.greedy))
		rep.set("fabric.bottleneck_calls", float64(fs.bottleneck))
		rep.set("fabric.residual_calls", float64(fs.residual))
		rep.set("fabric.s", fs.busy.Seconds())
		spans := tr.selfTimes()
		self := spans["coordinator.event"]
		rep.setN("coordinator.self_us_per_event", ratio(us(self), float64(all.rootEvents)), all.rootEvents)
		layers := layerTimes(spans)
		journalS := fsync.sum
		queueS := (sum(all.admitLat) + sum(all.buildDur)).Seconds()
		busy := map[string]float64{
			"coordinator": self.Seconds(), "sched": layers["sched"].Seconds(), "fabric": layers["fabric"].Seconds(),
			"wire": layers["wire"].Seconds(), "journal": journalS, "queue": queueS,
		}
		top := ""
		for _, l := range []string{"coordinator", "sched", "fabric", "wire", "journal", "queue"} {
			if top == "" || busy[l] > busy[top] {
				top = l
			}
		}
		rep.note("self time: coordinator %.3fs, sched %.3fs, fabric %.3fs, wire %.3fs, journal %.3fs, queue %.3fs; largest: %s",
			busy["coordinator"], busy["sched"], busy["fabric"], busy["wire"], busy["journal"], busy["queue"], top)
		rep.note("dominance: (journal + queue) / session time = %.4f", ratio(journalS+queueS, secs*float64(sessions)))
		rep.note("set-up spans: %.4fs", layers["setup"].Seconds())
	}
	rep.note("window %.3fs, %d jobs, %d flow events, %d reschedules, release-to-rate over %d slices",
		secs, all.departed, all.events, int(reschedules), len(slices))
	return rep, rate
}

// releaseSlices groups release latencies by the sliceLen slice of the
// window their release was sent in, leaving out slices with fewer than
// sliceMin samples (the window's ragged end). A window without a full
// slice is one group.
func releaseSlices(lat, at []time.Duration) [][]time.Duration {
	var groups [][]time.Duration
	for i, d := range lat {
		k := int(at[i] / sliceLen)
		for len(groups) <= k {
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], d)
	}
	full := groups[:0]
	for _, g := range groups {
		if len(g) >= sliceMin {
			full = append(full, g)
		}
	}
	if len(full) == 0 {
		return [][]time.Duration{lat}
	}
	return full
}

// clientTotals sums the sessions' wire counters.
type clientTotals struct {
	bytes, frames, allocFrames, entries int
	sendDur                             []time.Duration
}

// add takes the send side, which the session goroutines have finished.
func (t *clientTotals) add(c *client) {
	t.bytes += int(c.conn.out.Load())
	t.sendDur = append(t.sendDur, c.sendDur...)
}

// addRead takes the read side once the reader goroutine has ended.
func (t *clientTotals) addRead(c *client) {
	t.bytes += int(c.conn.in.Load())
	t.frames += c.frames
	t.allocFrames += c.allocFrames
	t.entries += c.entries
}

// hist is a registry histogram read back from its power-of-two buckets.
type hist struct {
	count  uint64
	sum    float64
	bounds []float64
	counts []uint64
}

func histOf(reg *telemetry.Registry, name string) hist {
	var h hist
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			h.count += s.Count
			h.sum += s.Sum
			for k, n := range s.Buckets {
				b, err := strconv.ParseFloat(k, 64)
				if err != nil {
					b = math.Inf(1)
				}
				h.bounds = append(h.bounds, b)
				h.counts = append(h.counts, n)
			}
		}
	}
	idx := make([]int, len(h.bounds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.bounds[idx[a]] < h.bounds[idx[b]] })
	bs, cs := make([]float64, len(idx)), make([]uint64, len(idx))
	for i, j := range idx {
		bs[i], cs[i] = h.bounds[j], h.counts[j]
	}
	h.bounds, h.counts = bs, cs
	return h
}

// quantile returns the upper bound of the bucket holding the q-quantile.
func (h hist) quantile(q float64) float64 {
	need := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, n := range h.counts {
		cum += n
		if cum >= need && cum > 0 {
			return h.bounds[i]
		}
	}
	return 0
}
