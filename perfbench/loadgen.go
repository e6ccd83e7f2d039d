package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"chipletnoc/internal/experiments"
)

// The nocd-mixed traffic mix. Arrivals are an open-loop Poisson process
// at eventRate, conditioned on its mean count: the window holds
// exactly eventRate × window arrivals at uniformly random times, so every run
// offers the same load. Job classes are dealt from shuffled blocks
// holding each class's exact share, so every run offers the same mix
// and only the order and timing vary with the seed. Duplicates ride on
// top of some cold sim jobs, a few milliseconds behind their original,
// so they find it queued or running and coalesce. At eventRate the
// offered load is about 16.5 jobs/s, about a third of what the daemon
// sustains on a 2-CPU host with this mix (README: Capacity): low enough
// that queueing does not magnify a change in host speed in the tail.
const (
	eventRate     = 15.0 // arrivals per second, duplicates excluded
	resubmitAfter = 2 * time.Second
)

// classBlock is one block of arrivals: per 20, 8 cold sim jobs (5
// ai-processor, 3 server-cpu, one of each duplicated in flight), 2 cold
// serving jobs, 9 resubmissions of earlier cold specs (cache hits) and
// 1 experiment job. The shares are assumptions, not taken from a
// recorded trace: they give every latency class enough samples in a
// 30 s run (about 200 cold, so the cold p95 has ten samples beyond it,
// and about 200 warm) and let every job kind and the coalescing path
// appear.
var classBlock = []string{
	"ai+dup", "ai", "ai", "ai", "ai", "srv+dup", "srv", "srv",
	"serving", "serving",
	"re", "re", "re", "re", "re", "re", "re", "re", "re",
	"exp",
}

// cheapExperiments are quick-scale catalog entries that finish in
// milliseconds; after the first run each is a cache hit.
var cheapExperiments = []string{"area", "table5", "scaleup"}

// servingJobDoc is the small serving sweep a cold serving job submits,
// and servingJobCycles the cycles it simulates (two loads).
const (
	servingJobDoc    = `{"seed":%d,"loads":[4,16],"cycles":2000}`
	servingJobCycles = 2 * 2000
)

// schedJob is one scheduled submission.
type schedJob struct {
	due  time.Duration // from the start of the load phase
	body string        // the POST /jobs body
	kind string        // sim, serving or experiment
	// sim is the spec of a sim job, for the in-process cross-check.
	sim *experiments.SimSpec
	// cycles is the simulated work the job represents if it runs.
	cycles uint64
}

// schedule derives the whole submission schedule for one load phase
// from the seed: identical seeds give identical schedules. Every sim
// and serving job draws a fresh seed, so a run never hits entries of an
// earlier run.
func schedule(seed uint64, window time.Duration) []schedJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	var jobs []schedJob
	var cold []int // indices of cold sim/serving jobs, in due order
	var block []string
	arrivals := make([]time.Duration, int(eventRate*window.Seconds()))
	for i := range arrivals {
		arrivals[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	for _, t := range arrivals {
		if len(block) == 0 {
			block = append(block, classBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		class := block[0]
		block = block[1:]
		if class == "re" {
			// Resubmit a cold spec old enough to have finished.
			n := sort.Search(len(cold), func(i int) bool { return jobs[cold[i]].due > t-resubmitAfter })
			if n > 0 {
				j := jobs[cold[rng.Intn(n)]]
				j.due = t
				jobs = append(jobs, j)
				continue
			}
			class = "ai" // too early for resubmissions: a cold sim job instead
		}
		switch class {
		case "ai", "ai+dup", "srv", "srv+dup":
			spec := &experiments.SimSpec{Topology: "ai-processor", Seed: rng.Uint64() >> 1}
			if strings.HasPrefix(class, "srv") {
				spec.Topology = "server-cpu"
			}
			j := schedJob{due: t, kind: "sim", sim: spec, cycles: 3000, // quick-scale default budget
				body: fmt.Sprintf(`{"sim":{"topology":%q,"seed":%d}}`, spec.Topology, spec.Seed)}
			cold = append(cold, len(jobs))
			jobs = append(jobs, j)
			if strings.HasSuffix(class, "+dup") {
				d := j
				d.due = t + time.Duration(2+rng.Intn(18))*time.Millisecond
				jobs = append(jobs, d)
			}
		case "serving":
			cold = append(cold, len(jobs))
			jobs = append(jobs, schedJob{due: t, kind: "serving", cycles: servingJobCycles,
				body: fmt.Sprintf(`{"kind":"serving","serving":`+servingJobDoc+`}`, rng.Uint64()>>1)})
		case "exp":
			name := cheapExperiments[rng.Intn(len(cheapExperiments))]
			jobs = append(jobs, schedJob{due: t, kind: "experiment",
				body: fmt.Sprintf(`{"experiment":%q}`, name)})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
	return jobs
}
