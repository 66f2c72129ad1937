package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/wire"
)

// simSpec sizes a simulated workload: mixes*jobs jobs of iterations
// iterations, dealt into mixes mixes, each simulated on its own big-switch
// fabric of hosts hosts.
type simSpec struct {
	mixes, jobs, iterations, hosts int
	// pool is how many hosts, from the front of the fabric, the jobs are
	// placed on. A pool smaller than the job mix needs makes jobs share
	// hosts, so their flows contend; the rest of the fabric is idle but
	// present, so per-host scheduler state scales with the cluster.
	pool int
}

// mixJob is one generated job with its placement.
type mixJob struct {
	spec  wire.JobSpec
	hosts []string
}

// genMixes draws mixes*jobs jobs and their placements from the seed and
// deals them to the mixes largest first, each to the mix with the fewest
// nodes so far. Simulator work grows with the square of a mix's node
// count, so balanced mixes keep a run's work the same on every seed.
func genMixes(seed int64, spec simSpec) [][]mixJob {
	gen := newJobGen(seed)
	names := hostNames(spec.pool)
	all := make([]mixJob, spec.mixes*spec.jobs)
	size := make([]int, len(all))
	for i := range all {
		js := gen.next("", "sim", spec.iterations)
		perm := gen.rng.Perm(spec.pool)[:queue.HostsNeeded(js)]
		hosts := make([]string, len(perm))
		for k, p := range perm {
			hosts[k] = names[p]
		}
		all[i] = mixJob{js, hosts}
		size[i], _ = perIteration(js)
	}
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	mixes := make([][]mixJob, spec.mixes)
	load := make([]int, spec.mixes)
	for _, i := range order {
		m := 0
		for k := range load {
			if load[k] < load[m] {
				m = k
			}
		}
		mixes[m] = append(mixes[m], all[i])
		load[m] += size[i]
	}
	return mixes
}

// compileMix compiles a mix's jobs with queue.Build, the coordinator's own
// compilation, and merges them into one workload.
// It returns how long each queue.Build took.
func compileMix(jobs []mixJob) (*ddlt.Workload, []time.Duration, error) {
	ws := make([]*ddlt.Workload, 0, len(jobs))
	builds := make([]time.Duration, 0, len(jobs))
	for _, j := range jobs {
		t0 := time.Now()
		w, err := queue.Build(j.spec, j.hosts)
		builds = append(builds, time.Since(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", j.spec.ID, err)
		}
		ws = append(ws, w)
	}
	w, err := ddlt.Merge(ws...)
	return w, builds, err
}

func hostNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("h%04d", i)
	}
	return out
}

func newFabric(hosts int) *fabric.Network {
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, hostNames(hosts)...)
	return net
}

// simRep is one set-up-and-run of one mix.
type simRep struct {
	mix, round  int
	setup, run  time.Duration
	build       time.Duration
	builds      []time.Duration
	passes      int
	tard        float64 // Eq. 4 objective
	print       uint64  // fingerprint of every group's tardiness
	heap        float64 // live heap in MB after Run, result held
	nodes, comm int
	sched       schedStats
	fab         fabricStats
	cache       sched.CacheStats
}

// runMix sets up and runs one mix once with the scheduler from mk. With a
// tracer it also records set-up spans and times fabric calls; with
// measureHeap it reports the live heap after Run with the result held.
func runMix(spec simSpec, jobs []mixJob, mk mkScheduler, tr *tracer, wrap, measureHeap bool) (*simRep, error) {
	rep := &simRep{}
	t0 := time.Now()
	w, builds, err := compileMix(jobs)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.record("setup.ddlt_build", 0, 0, t0, t1)
	var net fabric.Fabric = newFabric(spec.hosts)
	var fab *timedFabric
	if tr != nil {
		fab = &timedFabric{Fabric: net, tr: tr}
		net = fab
	}
	s := mk()
	var ts *timedSched
	if wrap {
		s, ts = wrapSched(s, tr, true)
	}
	sm, err := sim.New(sim.Options{Graph: w.Graph, Net: net, Scheduler: s, Arrangements: w.Arrangements})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	tr.record("setup.sim_new", 0, 0, t1, t2)
	rep.build, rep.setup = t1.Sub(t0), t2.Sub(t0)
	rep.builds = builds
	if ts != nil {
		ts.startStep()
	}
	t3 := time.Now()
	res, err := sm.Run()
	rep.run = time.Since(t3)
	if err != nil {
		return nil, err
	}
	rep.passes = res.SchedulerCalls
	rep.tard, rep.print = objective(res)
	for _, n := range w.Graph.Nodes() {
		rep.nodes++
		if n.Kind == dag.Comm {
			rep.comm++
		}
	}
	if ts != nil {
		rep.sched = ts.stats()
		rep.cache = ts.PlanCache().Stats()
	}
	if fab != nil {
		rep.fab = fab.stats()
	}
	if measureHeap {
		rep.heap = liveHeapMB()
	}
	runtime.KeepAlive(res)
	return rep, nil
}

// measureSim runs mix 0 once to warm up (a fresh process runs its first
// seconds slower), then whole rounds over every mix, each set up afresh,
// until the time is up and at least two rounds have run. Per mix it keeps
// the median Run time; rates are the mixes' summed work over their summed
// median times. It returns the report and the pass rate.
func measureSim(cfg config, spec simSpec, tr *tracer) (*report, float64) {
	rep := newReport()
	mixes := genMixes(cfg.seed, spec)
	warm, err := runMix(spec, mixes[0], cfg.mkSim, nil, true, false)
	if err != nil {
		rep.fail(fmt.Errorf("mix 0: %w", err))
		return rep, 0
	}
	mem := memNow()
	start := time.Now()
	var reps []*simRep
	rounds := 0
	for ; rounds < 2 || time.Since(start) < cfg.seconds; rounds++ {
		for m := range mixes {
			// The heap is measured in the first round, when the same
			// number of earlier runs' samples is held on every seed.
			one, err := runMix(spec, mixes[m], cfg.mkSim, tr, true, rounds == 0)
			if err != nil {
				rep.fail(fmt.Errorf("mix %d: %w", m, err))
				return rep, 0
			}
			one.mix, one.round = m, rounds
			reps = append(reps, one)
		}
	}
	md := memSince(mem)

	// Gates: every group's tardiness is bit-identical on every repetition
	// of a mix and, for mix 0, in a run of the unwrapped production scheduler.
	tard := make([]float64, spec.mixes)
	prints := make([]uint64, spec.mixes)
	for i, one := range reps {
		t, fp := one.tard, one.print
		if i < spec.mixes {
			tard[i], prints[i] = t, fp
			continue
		}
		rep.check(fp == prints[one.mix], "mix %d: group tardiness differs between repetitions (total %s, first %s)",
			one.mix, bits(t), bits(tard[one.mix]))
	}
	rep.check(warm.print == prints[0], "mix 0: group tardiness differs between repetitions (total %s, first %s)",
		bits(tard[0]), bits(warm.tard))
	direct, err := runMix(spec, mixes[0], simProduction, nil, false, false)
	if err != nil {
		rep.fail(fmt.Errorf("direct run of mix 0: %w", err))
		return rep, 0
	}
	rep.check(direct.print == prints[0], "mix 0: group tardiness differs from a direct sim.Run (total %s, direct %s)",
		bits(tard[0]), bits(direct.tard))

	var runSum, runAll, schedAll time.Duration
	var passes, flowEvents, jobs, allPasses, nodes int
	var heapMB, tardSum float64
	var setups, builds, schedDur, buildDur []time.Duration
	stepLat := make([][]time.Duration, rounds)
	released := 0
	var st schedStats
	var fs fabricStats
	var hits, lookups uint64
	for m := 0; m < spec.mixes; m++ {
		var runs []time.Duration
		for _, one := range reps {
			if one.mix == m {
				runs = append(runs, one.run)
			}
		}
		first := reps[m]
		runSum += quantile(runs, 0.5)
		passes += first.passes
		flowEvents += 2 * first.comm
		jobs += len(mixes[m])
		nodes += first.nodes
		tardSum += tard[m]
		heapMB += first.heap / float64(spec.mixes)
	}
	for _, one := range reps {
		rep.attempted++
		setups = append(setups, one.setup)
		builds = append(builds, one.build)
		buildDur = append(buildDur, one.builds...)
		stepLat[one.round] = append(stepLat[one.round], one.sched.stepLat...)
		released += len(one.sched.stepLat)
		schedDur = append(schedDur, one.sched.schedDur...)
		runAll += one.run
		schedAll += sum(one.sched.schedDur)
		allPasses += one.passes
		st.flows += one.sched.flows
		st.allocs += one.sched.allocs
		fs.maxmin += one.fab.maxmin
		fs.greedy += one.fab.greedy
		fs.bottleneck += one.fab.bottleneck
		fs.residual += one.fab.residual
		fs.busy += one.fab.busy
		hits += one.cache.Hits
		lookups += one.cache.Hits + one.cache.Misses
	}
	rate := ratio(float64(passes), runSum.Seconds())
	rep.setN("setup_s", quantile(setups, 0.5).Seconds(), len(setups))
	rep.setN("sim_events_per_s", rate, passes)
	rep.setN("flow_events_per_s", ratio(float64(flowEvents), runSum.Seconds()), flowEvents)
	rep.setN("jobs_per_s", ratio(float64(jobs), runSum.Seconds()), jobs)
	// Percentiles are taken per round and their median reported.
	rep.setN("release_to_rate_p50_ms", ms(medianQuantile(stepLat, 0.5)), released)
	rep.setN("release_to_rate_p99_ms", ms(medianQuantile(stepLat, 0.99)), released)
	rep.set("heap_mb", heapMB)
	rep.set("sched.total_tardiness_s", tardSum)

	self := runAll - schedAll
	rep.set("sim.self_s", self.Seconds())
	rep.setN("sim.self_us_per_pass", ratio(us(self), float64(allPasses)), allPasses)
	rep.set("sim.passes", float64(allPasses))
	rep.set("sim.nodes", float64(nodes))
	rep.set("sched.schedule_calls", float64(len(schedDur)))
	rep.set("sched.schedule_s", schedAll.Seconds())
	rep.setN("sched.schedule_p50_us", us(quantile(schedDur, 0.5)), len(schedDur))
	rep.setN("sched.schedule_p99_us", us(quantile(schedDur, 0.99)), len(schedDur))
	rep.setN("sched.plancache_hit_ratio", ratio(float64(hits), float64(lookups)), int(lookups))
	rep.setN("sched.flows_per_pass", ratio(float64(st.flows), float64(len(schedDur))), len(schedDur))
	rep.setN("sched.allocs_per_call", ratio(float64(st.allocs), float64(len(schedDur))), len(schedDur))
	rep.set("fabric.maxmin_calls", float64(fs.maxmin))
	rep.set("fabric.greedyfill_calls", float64(fs.greedy))
	rep.set("fabric.bottleneck_calls", float64(fs.bottleneck))
	rep.set("fabric.residual_calls", float64(fs.residual))
	rep.set("fabric.s", fs.busy.Seconds())
	rep.setN("queue.build_p50_us", us(quantile(buildDur, 0.5)), len(buildDur))
	rep.setN("ddlt.build_s", quantile(builds, 0.5).Seconds(), len(builds))
	rep.setRuntime(md, allPasses)
	if tr != nil {
		rep.note("dominance: sched.schedule_s / Run = %.3f (sim-wide expects >= 0.50)", ratio(schedAll.Seconds(), runAll.Seconds()))
		rep.note("dominance: sim.self_s / Run = %.3f (sim-long expects >= 0.80)", ratio(self.Seconds(), runAll.Seconds()))
		layers := layerTimes(tr.selfTimes())
		rep.note("self time: sim %.3fs, sched %.3fs, fabric %.3fs, setup %.3fs (Run total %.3fs)",
			self.Seconds(), (schedAll - fs.busy).Seconds(), layers["fabric"].Seconds(), layers["setup"].Seconds(), runAll.Seconds())
	}
	rep.note("mixes=%d rounds=%d total_tardiness_s=%s", spec.mixes, rounds, bits(tardSum))
	return rep, rate
}

// objective returns the Eq. 4 objective, summed in group-ID order, and a
// fingerprint of every group's tardiness bits. Result.TotalTardiness sums
// in map order, so its last bits differ between identical runs; the
// fingerprint compares what the simulation decided, group by group.
func objective(res *sim.Result) (float64, uint64) {
	ids := make([]string, 0, len(res.Groups))
	for id := range res.Groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	var total float64
	var b [8]byte
	for _, id := range ids {
		gr := res.Groups[id]
		if gr.Group == nil {
			continue
		}
		total += float64(gr.Tardiness) * gr.Group.EffectiveWeight()
		h.Write([]byte(id))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(gr.Tardiness)))
		h.Write(b[:])
	}
	return total, h.Sum64()
}
