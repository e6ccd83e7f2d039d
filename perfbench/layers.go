package main

import (
	"runtime"

	"chipletnoc/internal/noc"
)

// servingLayers are the metrics only the serving sweep produces.
var servingLayers = func() []string {
	names := []string{"serving.us_per_request", "experiments.fanout_busy_frac"}
	for _, l := range servingLoads {
		names = append(names, "serving.point_ms."+l)
	}
	return names
}()

// serverLayers are the metrics only the nocd workload produces.
var serverLayers = []string{
	"server.submit_ms_p50", "server.parse_us", "server.jobkey_us", "server.run_ms_p50",
	"server.queue_wait_ms_p50", "server.worker_busy_frac", "server.hit_ratio", "server.coalesced_frac", "server.refused_frac",
	"artifact.put_ms", "artifact.hits", "artifact.misses", "artifact.puts", "artifact.disk_bytes",
	"loadgen.late_ms_p99",
}

// zero reports layers a workload does not exercise as 0 from 0 samples.
func zero(r *report, names ...string) {
	for _, n := range names {
		r.set(n, 0, 0)
	}
}

// nocCounters runs a freshly built network for cycles under the engine
// setting the workload uses and reads the partitioned engine's
// counters: the effective partition count, supersteps and barrier
// crossings (both zero on the sequential engine).
func nocCounters(r *report, net *noc.Network, cycles int, run func(int)) {
	e0, s0 := net.EpochsRun, net.BarrierSyncs
	run(cycles)
	k := float64(cycles) / 1000
	r.set("noc.partitions", float64(net.Partitions()), 1)
	r.set("noc.epochs_per_kcycle", float64(net.EpochsRun-e0)/k, 1)
	r.set("noc.barrier_syncs_per_kcycle", float64(net.BarrierSyncs-s0)/k, 1)
}

// memSpan accumulates the allocator's counters over the calls it
// brackets, so set-ups, replays and forced collections between the
// measured calls stay out of the per-kcycle rates.
type memSpan struct {
	bytes, mallocs uint64
	gcs            uint32
	before         runtime.MemStats
}

func (m *memSpan) start() { runtime.ReadMemStats(&m.before) }

func (m *memSpan) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.gcs += after.NumGC - m.before.NumGC
}

// report turns the counters into per-simulated-kcycle rates.
func (m *memSpan) report(r *report, kcycles float64) {
	r.set("runtime.alloc_bytes_per_kcycle", float64(m.bytes)/kcycles, 1)
	r.set("runtime.allocs_per_kcycle", float64(m.mallocs)/kcycles, 1)
	r.set("runtime.gc_cycles", float64(m.gcs), 1)
}
