package main

import (
	"fmt"
	"math/rand"
	"sort"

	"echelonflow/internal/dag"
	"echelonflow/internal/queue"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// maxWorkers is echelon-loadgen's default -workers: jobs have 2 or 3.
const maxWorkers = 3

// paradigms is echelon-loadgen's default mix.
var paradigms = []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp"}

// shape is the discrete structure genJob draws for a job.
type shape struct {
	paradigm        string
	workers, layers int
}

// cycleLen is the number of shapes: every paradigm, worker count and layer
// count genJob can draw.
var cycleLen = len(paradigms) * (maxWorkers - 1) * 3

// jobGen draws the job stream of every workload from one seed, with
// echelon-loadgen's genJob distribution: paradigm, workers, layers and the
// paradigm's knob (buckets, micro-batches or prefetch depth) uniform over
// genJob's ranges, sizes and compute times uniform as genJob draws them.
// The discrete draws are dealt rather than drawn independently: every
// cycleLen jobs hold each shape once, in seeded order, and each paradigm's
// knob comes from its own shuffled deck. The distribution is unchanged, but
// since a job's flow count ranges 25-fold across shapes, only dealing
// makes a run that covers whole cycles do the same kind of work on every
// seed.
type jobGen struct {
	rng   *rand.Rand
	cycle []shape
	decks map[string][]int
	n     int
}

func newJobGen(seed int64) *jobGen {
	return &jobGen{rng: rand.New(rand.NewSource(seed)), decks: make(map[string][]int)}
}

// deal returns the next card of the named deck holding lo..hi.
func (g *jobGen) deal(name string, lo, hi int) int {
	d := g.decks[name]
	if len(d) == 0 {
		for v := lo; v <= hi; v++ {
			d = append(d, v)
		}
		g.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	g.decks[name] = d[1:]
	return d[0]
}

// next returns the generator's next job, named <prefix>j<n>.
func (g *jobGen) next(prefix, tenant string, iterations int) wire.JobSpec {
	if len(g.cycle) == 0 {
		for _, p := range paradigms {
			for w := 2; w <= maxWorkers; w++ {
				for l := 2; l <= 4; l++ {
					g.cycle = append(g.cycle, shape{p, w, l})
				}
			}
		}
		g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
	}
	sh := g.cycle[0]
	g.cycle = g.cycle[1:]
	rng := g.rng
	j := wire.JobSpec{
		ID: fmt.Sprintf("%sj%d", prefix, g.n), Tenant: tenant, Paradigm: sh.paradigm, Workers: sh.workers,
		Layers: sh.layers,
		Params: unit.Bytes(0.5 + 2*rng.Float64()), Acts: unit.Bytes(0.3 + rng.Float64()),
		Fwd: unit.Time(0.05 + 0.1*rng.Float64()), Bwd: unit.Time(0.05 + 0.1*rng.Float64()),
		Iterations: iterations,
	}
	g.n++
	switch sh.paradigm {
	case "dp", "ps":
		j.Buckets = g.deal(sh.paradigm, 0, 2)
		if sh.paradigm == "ps" {
			j.AggTime = 0.05
		}
	case "pp", "1f1b":
		j.Micro = g.deal(sh.paradigm, 2, 4)
		j.UpdateTime = 0.05
		if j.Layers < sh.workers {
			j.Layers = sh.workers // pipelines need one layer per stage
		}
	case "fsdp":
		j.Prefetch = g.deal(sh.paradigm, 0, 2)
	}
	return j
}

// perIteration counts a job's nodes and communications in one iteration.
func perIteration(js wire.JobSpec) (nodes, flows int) {
	js.Iterations = 1
	hosts := make([]string, queue.HostsNeeded(js))
	for i := range hosts {
		hosts[i] = fmt.Sprintf("d%d", i)
	}
	w, err := queue.Build(js, hosts)
	if err != nil {
		return 0, 0
	}
	for _, nd := range w.Graph.Nodes() {
		nodes++
		if nd.Kind == dag.Comm {
			flows++
		}
	}
	return nodes, flows
}

// largestFirst orders jobs by flow count, largest first, so that sessions
// sharing the list end their runs close together.
func largestFirst(jobs []wire.JobSpec) {
	flows := make(map[string]int, len(jobs))
	for _, js := range jobs {
		_, f := perIteration(js)
		flows[js.ID] = f * js.Iterations
	}
	sort.SliceStable(jobs, func(a, b int) bool { return flows[jobs[a].ID] > flows[jobs[b].ID] })
}
