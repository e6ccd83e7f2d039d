package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN, not a value")
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..200
	}
	// p95 of 1..200 is the 190th value; 10 samples lie beyond it.
	if got := percentile(xs, 95); got != 190 {
		t.Fatalf("p95 = %v, want 190", got)
	}
	if got := beyond(xs, 95); got != 10 {
		t.Errorf("beyond(p95) = %d, want 10", got)
	}
	if got := beyond(xs[:100], 95); got != 5 {
		t.Errorf("beyond(p95) of 100 samples = %d, want 5", got)
	}
}

func TestSplitLatenciesByDisposition(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	jobs := []*jobRec{
		{due: t0, done: at(40), disposition: "miss"},
		{due: at(10), done: at(12), disposition: "hit"},
		{due: at(20), done: at(45), disposition: "coalesced"},
		{due: at(30), done: at(100), disposition: "miss"},
		{due: at(30), disposition: "miss", failed: "submit: 429 Too Many Requests"},
		{due: at(50), disposition: "miss"}, // never finished
	}
	c := splitLatencies(jobs)
	if len(c.cold) != 2 || c.cold[0] != 40 || c.cold[1] != 70 {
		t.Errorf("cold = %v, want [40 70]", c.cold)
	}
	if len(c.warm) != 1 || c.warm[0] != 2 {
		t.Errorf("warm = %v, want [2]", c.warm)
	}
	if len(c.coalesced) != 1 || c.coalesced[0] != 25 {
		t.Errorf("coalesced = %v, want [25]", c.coalesced)
	}
}

func TestObservedRunsSumsSeenColdRuns(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	sim := &schedJob{kind: "sim", cycles: 3000}
	exp := &schedJob{kind: "experiment"}
	jobs := []*jobRec{
		{sj: sim, disposition: "miss", ran: [2]time.Time{at(10), at(40)}},
		{sj: sim, disposition: "miss", ran: [2]time.Time{at(50), at(60)}},
		{sj: exp, disposition: "miss", ran: [2]time.Time{at(0), at(5)}},
		{sj: sim, disposition: "miss"}, // done before any poll saw it run
		{sj: sim, disposition: "hit"},
		{sj: sim, disposition: "miss", failed: "status: 500", ran: [2]time.Time{at(0), at(90)}},
	}
	s := observedRuns(jobs)
	if s.cold != 4 || s.jobs != 3 || s.run != 45*time.Millisecond {
		t.Errorf("cold %d, seen %d, run %v; want 4, 3, 45ms", s.cold, s.jobs, s.run)
	}
	// 6000 simulated cycles in 40 ms of seen sim runs: 150k cycles/s.
	if s.simJobs != 2 || s.simCycles/s.simRun.Seconds() != 150000 {
		t.Errorf("sim jobs %d at %g cycles/s, want 2 at 150000", s.simJobs, s.simCycles/s.simRun.Seconds())
	}
}

func TestTracingOverheadTakesTheMedianPair(t *testing.T) {
	// Pair ratios traced/untraced: 1.1, 0.9, 1.05, 3 (a slow spell), 1.02.
	lower := [2][]float64{{10, 10, 20, 10, 50}, {11, 9, 21, 30, 51}}
	if got := tracingOverhead(lower, false); math.Abs(got-5) > 1e-9 {
		t.Errorf("lower-better overhead = %g%%, want 5%%", got)
	}
	// Rates: untraced/traced 1.25, 1.0, 0.8; an extra untraced sample
	// has no partner and is left out.
	higher := [2][]float64{{100, 100, 80, 7}, {80, 100, 100}}
	if got := tracingOverhead(higher, true); got != 0 {
		t.Errorf("higher-better overhead = %g%%, want 0%%", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "post", Parent: 0, Start: 0, End: 10},
		{Name: "poll", Parent: 0, Start: 50, End: 60},
		{Name: "poll", Parent: 0, Start: 55, End: 70},    // overlaps the first poll
		{Name: "result", Parent: 0, Start: 90, End: 110}, // runs past the parent
		{Name: "inner", Parent: 1, Start: 2, End: 5},
	}
	got := selfTimes(spans)
	// job: 100 - (10 + [50,70) 20 + [90,100) 10) = 60.
	want := map[string]selfStat{
		"job":    {1, 60},
		"post":   {1, 7},
		"poll":   {2, 25},
		"result": {1, 20},
		"inner":  {1, 3},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestListScheduleReplaysIndexOrderClaims(t *testing.T) {
	ms := time.Millisecond
	walls := []time.Duration{5 * ms, 3 * ms, 4 * ms, 1 * ms, 2 * ms}
	got := listSchedule(walls, 2)
	// w0: job0 [0,5) ; w1: job1 [0,3) job2 [3,7) ; w0: job3 [5,6) job4 [6,8).
	want := []time.Duration{0, 0, 3 * ms, 5 * ms, 6 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("starts = %v, want %v", got, want)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := schedule(7, 10*time.Second), schedule(7, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d jobs", len(a), len(b))
	}
	kinds := map[string]int{}
	for i := range a {
		if a[i].due != b[i].due || a[i].body != b[i].body {
			t.Fatalf("job %d differs under the same seed", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("job %d is due before job %d", i, i-1)
		}
		kinds[a[i].kind]++
	}
	for _, k := range []string{"sim", "serving", "experiment"} {
		if kinds[k] == 0 {
			t.Errorf("no %s job in 10 s of schedule", k)
		}
	}
	if rate := float64(len(a)) / 10; rate < 15 || rate > 18 {
		t.Errorf("offered rate %.1f jobs/s, want about 16.5", rate)
	}
	if c := schedule(8, 10*time.Second); len(c) == len(a) && c[0].body == a[0].body {
		t.Error("a different seed produced the same schedule")
	}
}

// The metric catalogs are the benchmark's contract with BENCHMARK.json.
func TestCatalogsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
