package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"chipletnoc/internal/config"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/server"
	"chipletnoc/internal/serving"
)

// servingCycles is the per-load window. The -exp serving default
// (40000) finishes a sweep in well under a second; this window makes one
// sweep take seconds, so per-point set-up is a negligible share and
// every point's wall time is long enough to time.
const servingCycles = 400000

// runServingMoE runs the default full-scale MoE serving sweep (loads 1
// to 128 requests/kcycle, fanned out over the worker pool) through
// RunServing back to back. Each sweep is one cold job; its per-point
// digests must equal a sequential-engine, one-worker reference sweep.
func runServingMoE(b *bench) error {
	doc := fmt.Sprintf(`{"seed":%d,"cycles":%d}`, b.seed, servingCycles)
	canonical, spec, err := experiments.NormalizeServingDoc(doc, experiments.Full)
	if err != nil {
		return err
	}
	if len(spec.Loads) != len(servingLoads) {
		return fmt.Errorf("default sweep has %d loads, the benchmark names %d", len(spec.Loads), len(servingLoads))
	}

	var builds []float64
	build := func() (*serving.System, error) {
		runtime.GC()
		var first *serving.System
		t0 := time.Now()
		for p := range spec.Loads {
			sys, err := serving.Build(spec, p)
			if err != nil {
				return nil, err
			}
			if p == 0 {
				first = sys
			}
		}
		t1 := time.Now()
		b.tr.add("serving.build", -1, -1, t0, t1)
		builds = append(builds, ms(t1.Sub(t0)))
		return first, nil
	}
	first, err := build()
	if err != nil {
		return err
	}
	if b.tr != nil {
		nocCounters(b.rep, first.Net, 2*sliceCycles, first.Net.Run)
	}

	ref := sequentialSweep(spec)
	ref.Doc = canonical
	warm, err := newReplayer(b, server.JobSpec{Kind: "serving", Scale: "full", Serving: []byte(doc)},
		&server.CachedResult{Kind: "serving", Serving: ref},
		func(p []byte) (string, error) {
			r, err := server.CachedServingResult(p, canonical)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}, ref.CSV())
	if err != nil {
		return err
	}

	var lat, rates, perReq, busy []float64
	points := make(map[string][]float64)
	var mem memSpan
	start := time.Now()
	sweeps := 0
	for ; sweeps == 0 || time.Since(start)+time.Duration(median(lat)*float64(time.Millisecond)) <= b.seconds; sweeps++ {
		mem.start()
		t0 := time.Now()
		res := experiments.RunServing(spec)
		t1 := time.Now()
		mem.stop()
		timings := experiments.DrainTimings()
		for i, p := range res.Points {
			b.rep.attempted++
			if i >= len(ref.Points) || p.Digest != ref.Points[i].Digest {
				b.rep.fail("serving sweep %d point %d: digest %s differs from the sequential reference", sweeps, i, p.Digest)
			}
		}
		if len(timings) != 1 {
			return fmt.Errorf("serving sweep %d: %d timing records, want 1", sweeps, len(timings))
		}
		e := timings[0]
		wall := t1.Sub(t0)
		lat = append(lat, ms(wall))
		rates = append(rates, float64(uint64(len(spec.Loads))*spec.Cycles)/wall.Seconds())

		b.sample(sweeps, rates[len(rates)-1])
		tr := b.opTracer(sweeps)
		root := tr.add("experiments.RunServing", sweeps, -1, t0, t1)
		fan := tr.add("experiments.RunJobs", sweeps, root, t0, t0.Add(e.Wall))
		walls := make([]time.Duration, len(e.Jobs))
		for i, j := range e.Jobs {
			walls[i] = j.Wall
			load := strings.TrimPrefix(j.Name, "serving/load-")
			points[load] = append(points[load], ms(j.Wall))
		}
		for i, s := range listSchedule(walls, e.Workers) {
			tr.add("serving.point", sweeps, fan, t0.Add(s), t0.Add(s+walls[i]))
		}
		var admitted uint64
		for _, p := range res.Points {
			admitted += p.Admitted
		}
		perReq = append(perReq, us(e.SerialWall())/float64(admitted))
		busy = append(busy, float64(e.SerialWall())/(float64(e.Workers)*float64(e.Wall)))
		if err := warm.replay(replaysPerJob); err != nil {
			return err
		}
		for i := 0; i < setupPerJob; i++ {
			if _, err := build(); err != nil {
				return err
			}
		}
	}
	b.rep.set("setup_s", median(builds)/1000, len(builds))
	b.rep.set("sim_cycles_per_s", median(rates), len(rates))
	b.rep.set("cold_p50_ms", median(lat), len(lat))
	b.rep.set("cold_p95_ms", percentile(lat, 95), len(lat))

	if err := warm.finish(); err != nil {
		return err
	}

	if b.tr != nil {
		for _, l := range servingLoads {
			b.rep.set("serving.point_ms."+l, median(points[l]), len(points[l]))
		}
		b.rep.set("serving.us_per_request", median(perReq), len(perReq))
		b.rep.set("experiments.fanout_busy_frac", median(busy), len(busy))
		b.rep.set("experiments.slice_ms_p50", 0, 0)
		b.rep.set("noc.ns_per_hop", 0, 0)
		b.rep.set("noc.hops_per_cycle", 0, 0)
		b.rep.set("noc.deflections_per_flit", 0, 0)
		kcycles := float64(sweeps) * float64(uint64(len(spec.Loads))*spec.Cycles) / 1000
		b.rep.set("serving.build_ms", median(builds)/float64(len(spec.Loads)), len(builds))
		b.rep.set("soc.build_ms", 0, 0)
		mem.report(b.rep, kcycles)
		zero(b.rep, serverLayers...)
	}
	return nil
}

// sequentialSweep runs the reference sweep: sequential engine, one
// worker. It restores the workload's parallelism afterwards and drops
// the reference's timing record.
func sequentialSweep(spec *config.ServingSpec) *experiments.ServingResult {
	workers := experiments.Parallelism()
	defer experiments.SetParallelism(workers)
	experiments.SetParallelism(1)
	ref := *spec
	ref.Partitions = 1
	res := experiments.RunServing(&ref)
	experiments.DrainTimings()
	return res
}
