package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. An empty input yields
// NaN so a missing sample can never pass as a real zero.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above the nearest-rank p-th
// percentile: a percentile is only reported as resolved when at least
// ten samples lie beyond it.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencyClasses splits submit-to-result latencies by how the daemon
// answered each admission: "miss" (the job ran), "hit" (served from the
// cache) and "coalesced" (attached to an identical in-flight run). Jobs
// that failed or were refused carry no latency and are left out.
type latencyClasses struct {
	cold, warm, coalesced []float64
}

// splitLatencies sorts finished jobs into their latency classes.
func splitLatencies(jobs []*jobRec) latencyClasses {
	var c latencyClasses
	for _, j := range jobs {
		if j.failed != "" || j.done.IsZero() {
			continue
		}
		lat := ms(j.done.Sub(j.due))
		switch j.disposition {
		case "miss":
			c.cold = append(c.cold, lat)
		case "hit":
			c.warm = append(c.warm, lat)
		case "coalesced":
			c.coalesced = append(c.coalesced, lat)
		}
	}
	return c
}
