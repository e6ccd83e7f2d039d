package main

import (
	"fmt"
	"runtime"
	"time"

	"chipletnoc/internal/experiments"
	"chipletnoc/internal/server"
	"chipletnoc/internal/soc"
)

// setupReps is how many times nocd-mixed repeats each set-up it times
// (daemon start, die and serving builds); it reports the median.
const setupReps = 31

// setupPerJob is how many set-ups sim-ai and serving-moe time after each
// cold job (after one before the first). Spreading them over the window
// lets their median cover the host's speed over the whole run: short
// operations on a shared host switch between a fast and a slow speed
// every 0.25–3 s, so set-ups timed back to back all land in one of them.
const setupPerJob = 4

// sliceCycles is RunSim's interrupt-poll stride with checkpointing off:
// the Interrupt hook fires once per this many simulated cycles.
const sliceCycles = 1024

// replaysPerJob is how many cache replays follow each cold run.
const replaysPerJob = 25

// runSimAI runs the full-scale AI-Processor simulation through RunSim
// back to back for the measurement window. Each run is one cold job
// (its wall clock, set-up included, is the job latency); the simulated
// cycles between the first and the last Interrupt poll over the host
// time between them is the simulation rate, set-up excluded. Every run's
// latency digest must equal a sequential-engine reference run, and
// every cache replay must render the reference's CSV.
func runSimAI(b *bench) error {
	spec := experiments.SimSpec{Topology: "ai-processor", Scale: "full", Seed: b.seed}
	norm, err := spec.Normalize()
	if err != nil {
		return err
	}
	cfg := soc.DefaultAIConfig() // the full-scale die RunSim builds for this spec
	cfg.Seed = b.seed

	var builds []float64
	build := func() *soc.AIProcessor {
		runtime.GC()
		t0 := time.Now()
		die := soc.BuildAIProcessor(cfg)
		t1 := time.Now()
		b.tr.add("soc.build", -1, -1, t0, t1)
		builds = append(builds, ms(t1.Sub(t0)))
		return die
	}
	if die := build(); b.tr != nil {
		nocCounters(b.rep, die.Net, 2*sliceCycles, die.Run)
	}

	refSpec := spec
	refSpec.Partitions = 1
	ref, err := experiments.RunSim(refSpec, nil, nil)
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	warm, err := newReplayer(b, server.JobSpec{Kind: "sim", Sim: &spec},
		&server.CachedResult{Kind: "sim", Sim: ref},
		func(p []byte) (string, error) {
			r, err := server.CachedSimResult(p, norm)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}, ref.CSV())
	if err != nil {
		return err
	}

	var lat, rates, slices []float64
	var mem memSpan
	start := time.Now()
	for job := 0; job == 0 || time.Since(start)+time.Duration(median(lat)*float64(time.Millisecond)) <= b.seconds; job++ {
		var polls []time.Time
		ctl := &experiments.SimControl{Interrupt: func() experiments.InterruptKind {
			polls = append(polls, time.Now())
			return experiments.KeepRunning
		}}
		mem.start()
		t0 := time.Now()
		res, err := experiments.RunSim(spec, nil, ctl)
		t1 := time.Now()
		mem.stop()
		b.rep.attempted++
		if err != nil {
			b.rep.fail("sim-ai run %d: %v", job, err)
			continue
		}
		if res.LatencyFNV != ref.LatencyFNV || res.CSV() != ref.CSV() {
			b.rep.fail("sim-ai run %d: digest %s, sequential reference %s", job, res.LatencyFNV, ref.LatencyFNV)
		}
		tr := b.opTracer(job)
		root := tr.add("experiments.RunSim", job, -1, t0, t1)
		for i := 1; i < len(polls); i++ {
			tr.add("noc.slice", job, root, polls[i-1], polls[i])
			slices = append(slices, ms(polls[i].Sub(polls[i-1])))
		}
		lat = append(lat, ms(t1.Sub(t0)))
		timed := polls[len(polls)-1].Sub(polls[0]).Seconds()
		rates = append(rates, float64(norm.Cycles-sliceCycles)/timed)
		b.sample(job, rates[len(rates)-1])
		if err := warm.replay(replaysPerJob); err != nil {
			return err
		}
		for i := 0; i < setupPerJob; i++ {
			build()
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
		// Every run simulates the same spec, so the reference's counts
		// are every run's counts.
		b.rep.set("experiments.slice_ms_p50", median(slices), len(slices))
		b.rep.set("noc.ns_per_hop", median(lat)*1e6/float64(ref.Hops), len(lat))
		b.rep.set("noc.hops_per_cycle", float64(ref.Hops)/float64(norm.Cycles), 1)
		b.rep.set("noc.deflections_per_flit", float64(ref.Deflections)/float64(ref.Injected), 1)
		b.rep.set("soc.build_ms", median(builds), len(builds))
		b.rep.set("serving.build_ms", 0, 0)
		mem.report(b.rep, float64(norm.Cycles)*float64(len(lat))/1000)
		zero(b.rep, servingLayers...)
		zero(b.rep, serverLayers...)
	}
	return nil
}
