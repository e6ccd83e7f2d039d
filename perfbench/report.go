package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit. The two catalogs
// below are the benchmark's contract with BENCHMARK.json (a test keeps
// them equal): a run with tracing off reports exactly endToEnd, a traced
// run exactly perLayer.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
	{"cold_p50_ms", "ms"},
	{"cold_p95_ms", "ms"},
	{"warm_p50_ms", "ms"},
}

// servingLoads are the default full-scale serving sweep's offered loads
// (requests per kcycle); each names one serving.point_ms metric.
var servingLoads = []string{"1", "2", "4", "8", "16", "32", "64", "128"}

// traceSpans are the span names whose mean self time a traced run
// reports, each as self_ms.<name>.
var traceSpans = []string{
	"soc.build", "serving.build", "server.start",
	"experiments.RunSim", "noc.slice",
	"experiments.RunServing", "experiments.RunJobs", "serving.point",
	"loadgen.job", "http.post", "http.poll", "http.result",
	"server.parse", "server.jobkey", "server.run",
	"artifact.get", "artifact.put",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"soc.build_ms", "ms"},
		{"serving.build_ms", "ms"},
		{"experiments.slice_ms_p50", "ms"},
		{"noc.ns_per_hop", "ns"},
		{"noc.hops_per_cycle", "1/cycle"},
		{"noc.deflections_per_flit", "1/flit"},
		{"noc.partitions", "count"},
		{"noc.epochs_per_kcycle", "1/kcycle"},
		{"noc.barrier_syncs_per_kcycle", "1/kcycle"},
		{"runtime.alloc_bytes_per_kcycle", "B/kcycle"},
		{"runtime.allocs_per_kcycle", "1/kcycle"},
		{"runtime.gc_cycles", "count"},
	}
	for _, l := range servingLoads {
		defs = append(defs, metricDef{"serving.point_ms." + l, "ms"})
	}
	defs = append(defs,
		metricDef{"serving.us_per_request", "us"},
		metricDef{"experiments.fanout_busy_frac", "fraction"},
		metricDef{"server.submit_ms_p50", "ms"},
		metricDef{"server.parse_us", "us"},
		metricDef{"server.jobkey_us", "us"},
		metricDef{"server.run_ms_p50", "ms"},
		metricDef{"server.queue_wait_ms_p50", "ms"},
		metricDef{"server.worker_busy_frac", "fraction"},
		metricDef{"server.hit_ratio", "fraction"},
		metricDef{"server.coalesced_frac", "fraction"},
		metricDef{"server.refused_frac", "fraction"},
		metricDef{"artifact.get_us", "us"},
		metricDef{"artifact.put_ms", "ms"},
		metricDef{"artifact.hits", "count"},
		metricDef{"artifact.misses", "count"},
		metricDef{"artifact.puts", "count"},
		metricDef{"artifact.disk_bytes", "B"},
		metricDef{"loadgen.late_ms_p99", "ms"},
	)
	for _, s := range traceSpans {
		defs = append(defs, metricDef{"self_ms." + s, "ms"})
	}
	return append(defs, metricDef{"trace.overhead_pct", "%"}, metricDef{"trace.spans", "count"})
}()

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report collects one run's metrics and its operation accounting.
type report struct {
	vals      map[string]value
	attempted int
	failed    int
}

func newReport() *report { return &report{vals: map[string]value{}} }

// set records a metric measured from n samples.
func (r *report) set(name string, v float64, n int) { r.vals[name] = value{v, n} }

// fail counts one failed operation and says why on stderr.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// emit prints every metric of defs as a table (name, value, unit,
// samples), then the one-line JSON result that ends the output. Layers a
// workload does not exercise report 0 from 0 samples. A metric that is
// not a finite number makes the run incorrect rather than printing a
// value no one measured.
func (r *report) emit(w io.Writer, defs []metricDef) {
	metrics := make(map[string]interface{}, len(defs))
	correct := r.failed == 0
	fmt.Fprintf(w, "%-34s %16s  %-10s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v := r.vals[d.name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no finite value\n", d.name)
			correct = false
			v.v = 0
		}
		fmt.Fprintf(w, "%-34s %16.6g  %-10s %d\n", d.name, v.v, d.unit, v.n)
		metrics[d.name] = map[string]interface{}{"value": v.v, "unit": d.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
		correct = false
	}
	line, _ := json.Marshal(map[string]interface{}{
		"correct": correct, "attempted": attempted, "failed": r.failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stamp identifies the host and code a report came from. Numbers from
// reports whose stamps differ in nproc, GOMAXPROCS or Go version are
// not comparable.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func newStamp(root string) stamp {
	st := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Source: sourceDigest(root)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	return st
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s source=%.12s",
		s.NProc, s.GOMAXPROCS, s.GoVersion, s.Commit, s.Source)
}

// sourceDigest hashes the program's Go sources (go.mod plus every .go
// file under cmd/ and internal/), so a checkout without git history
// still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
