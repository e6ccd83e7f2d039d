package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/server"
)

// replayer measures the warm path of the experiments CLI's -cache-dir
// for one job: open the store, look the key up (a disk-tier read,
// CRC-verified), decode the payload and render the CSV a cold run
// prints. Replays are interleaved with the cold runs, so the warm
// samples see the same host conditions over the whole window.
type replayer struct {
	b      *bench
	dir    string
	key    string
	render func(payload []byte) (string, error)
	want   string
	// batches holds each batch's median replay time. Short operations on
	// a shared host switch between a fast and a slow speed every
	// 0.25–3 s, and a batch falls inside one of them; the median of all
	// replays would jump between the two speeds from run to run, while
	// the mean of the batch medians moves with the share of time spent
	// in each.
	batches []float64
	n       int
}

// newReplayer stores the job's cache payload, computed as
// cmd/experiments computes it, in a fresh cache directory.
func newReplayer(b *bench, js server.JobSpec, c *server.CachedResult,
	render func([]byte) (string, error), want string) (*replayer, error) {
	js, err := js.Normalize()
	if err != nil {
		return nil, err
	}
	key, err := server.JobKey(js)
	if err != nil {
		return nil, err
	}
	payload, err := c.Encode()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.work, "cli-cache-")
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(artifact.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	if err := store.Put(key, payload); err != nil {
		return nil, err
	}
	return &replayer{b: b, dir: dir, key: key, render: render, want: want}, nil
}

// replay runs n replays; each must render exactly the cold run's CSV.
// The CLI replays in a fresh process, so the garbage the cold runs left
// is collected first, outside the timing.
func (r *replayer) replay(n int) error {
	runtime.GC()
	var samples []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		store, err := artifact.Open(artifact.Config{Dir: r.dir})
		if err != nil {
			return err
		}
		payload, ok := store.Get(r.key)
		csv := ""
		if ok {
			csv, err = r.render(payload)
		}
		t1 := time.Now()
		r.b.tr.add("artifact.get", -1, -1, t0, t1)
		r.b.rep.attempted++
		if !ok || err != nil || csv != r.want {
			r.b.rep.fail("cache replay: hit=%v err=%v, or the replayed CSV differs from the cold run", ok, err)
			continue
		}
		samples = append(samples, ms(t1.Sub(t0)))
	}
	if len(samples) > 0 {
		r.batches = append(r.batches, median(samples))
		r.n += len(samples)
	}
	return nil
}

// finish reports warm_p50_ms, the mean of the batch medians (and
// artifact.get_us on a traced pass), and removes the cache directory.
func (r *replayer) finish() error {
	defer os.RemoveAll(r.dir)
	if len(r.batches) == 0 {
		return fmt.Errorf("no successful cache replay")
	}
	var sum float64
	for _, m := range r.batches {
		sum += m
	}
	warm := sum / float64(len(r.batches))
	r.b.rep.set("warm_p50_ms", warm, r.n)
	if r.b.tr != nil {
		r.b.rep.set("artifact.get_us", warm*1000, r.n)
	}
	return nil
}
