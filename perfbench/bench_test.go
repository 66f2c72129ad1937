package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"echelonflow/internal/check"
	"echelonflow/internal/sched"
)

// small shrinks every workload so the whole set runs in seconds.
func small() []workload {
	return []workload{
		{name: "sim-wide", sim: &simSpec{mixes: 2, jobs: 3, iterations: 1, hosts: 64, pool: 6}},
		{name: "sim-long", sim: &simSpec{mixes: 2, jobs: 2, iterations: 3, hosts: 8, pool: 4}},
		{name: "live-history", live: &liveSpec{minIter: 3, maxIter: 3, minJobs: 2}},
		{name: "live-churn", live: &liveSpec{minIter: 1, maxIter: 2, minJobs: 6, journal: true, admitLimit: 2}},
	}
}

func testConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 200 * time.Millisecond, trace: trace, work: t.TempDir(),
		mkSim: simProduction, mkLive: production}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runAndParse(t *testing.T, wl workload, cfg config) (result, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := emit(&buf, wl, cfg, run(cfg, wl)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	return r, buf.String()
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, wl := range small() {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			t.Run(wl.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				r, out := runAndParse(t, wl, testConfig(t, trace))
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("run not correct: %+v\n%s", r, out)
				}
				names := endToEnd
				if trace {
					names = perLayer
				}
				if len(r.Metrics) != len(names) {
					t.Errorf("%d metrics printed, want %d", len(r.Metrics), len(names))
				}
				for _, nu := range names {
					m, ok := r.Metrics[nu[0]]
					if !ok || m.Unit != nu[1] {
						t.Errorf("metric %s: got %+v, want unit %s", nu[0], m, nu[1])
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", nu[0], m.Value)
					}
					if !strings.Contains(out, nu[0]) {
						t.Errorf("table lacks %s", nu[0])
					}
				}
			})
		}
	}
}

func TestSimGateCatchesOverdrive(t *testing.T) {
	cfg := testConfig(t, false)
	cfg.mkSim = func() sched.Scheduler { return check.Overdrive{Inner: simProduction(), Factor: 2} }
	r, out := runAndParse(t, small()[0], cfg)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("overdriven scheduler passed the sim gate:\n%s", out)
	}
}

func TestLiveGateCatchesSchedulerErrors(t *testing.T) {
	cfg := testConfig(t, false)
	cfg.mkLive = func() sched.Scheduler {
		budget := 5
		return check.Overdrive{Inner: simProduction(), Factor: 1, FailAfter: &budget}
	}
	r, out := runAndParse(t, small()[2], cfg)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("failing scheduler passed the live gate:\n%s", out)
	}
}

// TestWrapperKeepsCodePaths checks that the benchmark's scheduler wrapper
// exposes exactly the optional interfaces of what it wraps.
func TestWrapperKeepsCodePaths(t *testing.T) {
	plain, _ := wrapSched(simProduction(), nil, false)
	if _, ok := plain.(sched.DeltaScheduler); ok {
		t.Error("wrapped EchelonMADD claims the delta API")
	}
	if pc, ok := plain.(interface{ PlanCache() *sched.PlanCache }); !ok || pc.PlanCache() == nil {
		t.Error("wrapped EchelonMADD hides its plan cache")
	}
	delta, _ := wrapSched(production(), nil, false)
	if _, ok := delta.(sched.DeltaScheduler); !ok {
		t.Error("wrapped DeltaEchelon lost Apply/Prime")
	}
	bounded, _ := wrapSched(sched.WithDeadline(production(), sched.DeadlineOptions{Budget: time.Second}), nil, false)
	if _, ok := bounded.(sched.DegradeControl); !ok {
		t.Error("wrapped deadline scheduler lost its degrade controls")
	}
	if _, ok := bounded.(sched.DeltaScheduler); !ok {
		t.Error("wrapped deadline-delta scheduler lost Apply/Prime")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want [][2]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i][0] || m.Unit != c.want[i][1] {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, c.want[i][0], c.want[i][1])
			}
		}
	}
}

func TestReleaseSlices(t *testing.T) {
	var lat, at []time.Duration
	for i := 0; i < 2*sliceMin+10; i++ {
		lat = append(lat, time.Duration(i))
		at = append(at, time.Duration(i)*sliceLen/sliceMin)
	}
	if got := releaseSlices(lat, at); len(got) != 2 || len(got[0]) != sliceMin || len(got[1]) != sliceMin {
		t.Errorf("got %d slices, want the 2 full ones", len(got))
	}
	if got := releaseSlices(lat[:10], at[:10]); len(got) != 1 || len(got[0]) != 10 {
		t.Errorf("a window without a full slice gave %d groups, want 1 of every sample", len(got))
	}
}
