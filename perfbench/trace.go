package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job share Job; Parent is
// the index of the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index for use as a
// parent; on a nil tracer it returns -1.
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// selfStat is one span name's aggregate: how many spans and their total
// self time.
type selfStat struct {
	Count int
	Self  time.Duration
}

// selfTimes computes, per span name, the total self time: each span's
// duration minus the part of its interval covered by the union of its
// children (children are clipped to the parent; overlapping children
// count once, so parallel fan-out is not double-subtracted).
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]selfStat)
	for i, s := range spans {
		covered := coveredBy(s.Start, s.End, children[i])
		st := out[s.Name]
		st.Count++
		st.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = st
	}
	return out
}

// coveredBy returns how much of [lo, hi) the union of ivs covers.
func coveredBy(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curHi {
			if iv[1] > curHi {
				curHi = iv[1]
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// listSchedule reconstructs where each job of a RunJobs batch ran: the
// pool hands jobs out in index order to whichever worker frees first, so
// replaying that rule over the measured per-job walls places every job
// on the time line. It returns start offsets from the batch start. The
// hand-off cost between jobs is not modelled, so starts are a lower
// bound.
func listSchedule(walls []time.Duration, workers int) []time.Duration {
	if workers < 1 {
		workers = 1
	}
	free := make([]time.Duration, workers)
	starts := make([]time.Duration, len(walls))
	for i, w := range walls {
		k := 0
		for j := range free {
			if free[j] < free[k] {
				k = j
			}
		}
		starts[i] = free[k]
		free[k] += w
	}
	return starts
}

// writeSpans writes the stamp and every span as one JSON document.
func (t *tracer) writeSpans(path string, st stamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
