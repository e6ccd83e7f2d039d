// Command perfbench is the repository's benchmark. It drives the
// simulator, the serving sweep and the nocd job service in-process
// through their public functions, checks every output, and prints the
// end-to-end metrics (tracing off) or the per-layer metrics (tracing
// on) as one JSON line. Run it from the repository root, via run.sh:
//
//	bash perfbench/run.sh --workload sim-ai --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chipletnoc/internal/experiments"
	"chipletnoc/internal/noc"
)

// workload is one traffic mix. settings are the process-wide engine
// knobs of the entry point the workload imitates; run measures for the
// given duration and fills the report. On a traced run (tr set) it also
// takes the per-layer measurements and records spans.
type workload struct {
	settings settings
	run      func(b *bench) error
	// higherBetter is the direction of the primary metric whose samples
	// the workload passes to bench.sample for the tracing overhead.
	higherBetter bool
}

// settings are experiments' process-wide knobs. Every workload sets all
// three, so one workload's choice never leaks into another's numbers.
type settings struct{ parallelism, partitions, lookahead int }

func (s settings) apply() {
	experiments.SetParallelism(s.parallelism)
	experiments.SetSimPartitions(s.partitions)
	experiments.SetSimLookahead(s.lookahead)
}

// bench is one measurement pass of one workload.
type bench struct {
	seed    uint64
	seconds time.Duration
	work    string // scratch directory inside the checkout
	rep     *report
	tr      *tracer // nil when untraced
	// paired holds the primary metric's samples of the untraced [0] and
	// the traced [1] operations of a traced run.
	paired [2][]float64
}

// opTracer is the tracer for operation i. A traced run records the spans
// of every other operation only, so traced and untraced operations
// alternate under the same host conditions and their medians give the
// tracing overhead. It is nil on untraced runs and for even i.
func (b *bench) opTracer(i int) *tracer {
	if i%2 == 0 {
		return nil
	}
	return b.tr
}

// sample records operation i's primary-metric sample on a traced run.
func (b *bench) sample(i int, v float64) {
	if b.tr != nil {
		b.paired[i%2] = append(b.paired[i%2], v)
	}
}

var workloads = map[string]workload{
	"sim-ai": {
		// cmd/experiments defaults: -parallel NumCPU, sequential engine.
		settings: settings{runtime.NumCPU(), 0, 0},
		run:      runSimAI, higherBetter: true,
	},
	"serving-moe": {
		settings: settings{runtime.NumCPU(), 0, 0},
		run:      runServingMoE, higherBetter: true,
	},
	"nocd-mixed": {
		// cmd/nocd defaults: -parallel NumCPU, -partitions auto, -lookahead 0.
		settings: settings{runtime.NumCPU(), noc.PartitionsAuto, 0},
		run:      runNocd,
	},
}

func main() {
	name := flag.String("workload", "", "sim-ai, serving-moe or nocd-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim-ai|serving-moe|nocd-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, rep: newReport()}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	if err := run(*name, wl, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its report. Everything it writes
// stays under .bench_build in the current directory.
func run(name string, wl workload, b *bench) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return err
	}
	if b.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)

	st := newStamp(root)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%v traced=%v\n", name, b.seed, b.seconds.Seconds(), b.tr != nil)
	fmt.Printf("perfbench: host %s\n", st)
	wl.settings.apply()
	fmt.Printf("perfbench: settings parallelism=%d partitions=%d lookahead=%d\n",
		experiments.Parallelism(), experiments.SimPartitions(), experiments.SimLookahead())

	if err := wl.run(b); err != nil {
		return err
	}
	defs := endToEnd
	if b.tr != nil {
		overhead := tracingOverhead(b.paired, wl.higherBetter)
		b.rep.set("trace.overhead_pct", overhead, len(b.paired[0])+len(b.paired[1]))
		b.rep.set("trace.spans", float64(len(b.tr.spans)), len(b.tr.spans))
		for span, s := range selfTimes(b.tr.spans) {
			b.rep.set("self_ms."+span, ms(s.Self)/float64(s.Count), s.Count)
		}
		for _, s := range traceSpans {
			if _, ok := b.rep.vals["self_ms."+s]; !ok {
				b.rep.set("self_ms."+s, 0, 0)
			}
		}
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", name, b.seed))
		if err := b.tr.writeSpans(path, st); err != nil {
			return err
		}
		fmt.Printf("perfbench: %d spans written to %s\n", len(b.tr.spans), path)
		printEndToEnd(b.rep)
		defs = perLayer
	}
	b.rep.set("rss_peak_mb", rssPeakMB(), 1)
	b.rep.emit(os.Stdout, defs)
	return nil
}

// tracingOverhead pairs the k-th untraced with the k-th traced sample
// of the primary metric, which ran at about the same time, and returns,
// in percent, how much worse the traced one is in the median pair. A
// slow spell of the host moves both members of most pairs together,
// where it would move the median of one half alone.
func tracingOverhead(paired [2][]float64, higherBetter bool) float64 {
	n := len(paired[0])
	if len(paired[1]) < n {
		n = len(paired[1])
	}
	ratios := make([]float64, n)
	for k := range ratios {
		base, with := paired[0][k], paired[1][k]
		ratios[k] = with / base
		if higherBetter {
			ratios[k] = base / with
		}
	}
	return (median(ratios) - 1) * 100
}

// printEndToEnd lists the traced run's end-to-end numbers ahead of the
// per-layer table, so one traced run shows every metric.
func printEndToEnd(r *report) {
	for _, d := range endToEnd {
		if v, ok := r.vals[d.name]; ok {
			fmt.Printf("traced %-27s %16.6g  %-10s %d\n", d.name, v.v, d.unit, v.n)
		}
	}
}
