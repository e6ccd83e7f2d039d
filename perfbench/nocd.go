package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/server"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/soc"
)

const (
	// pollEvery is the client's poll resolution: a queued or running
	// job's status is read once per sweep, one sweep per pollEvery.
	// Cache hits are answered on submission and never polled.
	pollEvery = time.Millisecond
	// drainLimit bounds the wait for jobs still open when the schedule
	// ends; a job not done by then counts as failed.
	drainLimit = 60 * time.Second
	// lateLimit is the generator's own lateness (waking up after a
	// submission was due while it was idle) beyond which the run is
	// invalid: the client, not the daemon, fell behind.
	lateLimit = 50 * time.Millisecond
	// checkPerTopology is how many cold sim jobs of each topology are
	// re-run in-process and compared with the daemon's result.
	checkPerTopology = 12
	// checkServing is how many cold serving jobs are re-run in-process.
	checkServing = 4
)

// jobRec is one submission's life as the client saw it.
type jobRec struct {
	sj          *schedJob
	due         time.Time
	sent        time.Time // POST started
	accepted    time.Time // POST answered
	idle        bool      // the generator was waiting for this job's due time
	traced      bool      // record this job's HTTP calls as spans
	id          string
	disposition string // X-Nocd-Cache: miss, hit or coalesced
	refused     bool   // answered 429
	polls       [][2]time.Time
	// ran is when the poll that first saw the job running and the poll
	// that saw it done were sent; zero unless both were seen.
	ran    [2]time.Time
	fetch  time.Time // result GET started
	done   time.Time // result received
	body   []byte
	failed string
}

// daemonWorkers is cmd/nocd's default worker count.
const daemonWorkers = 2

// daemon is an in-process nocd wired as cmd/nocd's flag defaults with a
// result cache: 2 workers, queue 16, Retry-After 1 s, no state dir.
type daemon struct {
	srv   *server.Server
	http  *httptest.Server
	store *artifact.Store
}

func startDaemon(work string) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "nocd-cache-")
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(artifact.Config{Dir: dir, MemBytes: 64 << 20, DiskBytes: 1024 << 20})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{QueueDepth: 16, Workers: daemonWorkers, RetryAfterSeconds: 1, Cache: store})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ReadHeaderTimeout = 10 * time.Second
	ts.Config.ReadTimeout = time.Minute
	ts.Config.WriteTimeout = 5 * time.Minute
	ts.Config.IdleTimeout = 2 * time.Minute
	ts.Start()
	d := &daemon{srv: srv, http: ts, store: store}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		d.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("readyz: %s", resp.Status)
	}
	return d, nil
}

// stop closes HTTP first, then drains the workers, as nocd does.
func (d *daemon) stop() {
	d.http.Close()
	d.srv.Shutdown()
}

// client talks to the daemon over at most nproc connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	n := runtime.NumCPU()
	return &client{base: base, hc: &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}}
}

func (c *client) do(method, path, body string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// resultPath is where a job's comparable result lives: the CSV for sim
// and serving jobs, the rendered text for experiment artifacts.
func resultPath(r *jobRec) string {
	if r.sj.kind == "experiment" {
		return "/jobs/" + r.id + "/result?format=text"
	}
	return "/jobs/" + r.id + "/result?format=csv"
}

// fetchResult GETs a done job's result.
func (c *client) fetchResult(r *jobRec) {
	r.fetch = time.Now()
	resp, body, err := c.do("GET", resultPath(r), "")
	r.done = time.Now()
	switch {
	case err != nil:
		r.failed = err.Error()
	case resp.StatusCode != http.StatusOK:
		r.failed = fmt.Sprintf("result: %s", resp.Status)
	default:
		r.body = body
	}
}

// generate submits every job at its due time. Hits come back done on
// submission and are fetched at once; everything else goes to the
// poller. It closes pending's feed when the schedule is exhausted.
func (c *client) generate(recs []*jobRec, pending chan<- *jobRec) {
	defer close(pending)
	for _, r := range recs {
		if d := time.Until(r.due); d > 0 {
			r.idle = true
			time.Sleep(d)
		}
		r.sent = time.Now()
		resp, body, err := c.do("POST", "/jobs", r.sj.body)
		r.accepted = time.Now()
		if err != nil {
			r.failed = err.Error()
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			r.refused = resp.StatusCode == http.StatusTooManyRequests
			r.failed = fmt.Sprintf("submit: %s", resp.Status)
			continue
		}
		var v struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			r.failed = err.Error()
			continue
		}
		r.id, r.disposition = v.ID, resp.Header.Get("X-Nocd-Cache")
		if v.Status == string(server.StatusDone) {
			c.fetchResult(r)
			continue
		}
		pending <- r
	}
}

// poll reads each open job's status once per sweep until every job
// handed over is done, failed or past the drain limit.
func (c *client) poll(pending <-chan *jobRec) {
	var open []*jobRec
	fed := true
	var deadline time.Time
	for fed || len(open) > 0 {
	drain:
		for fed {
			select {
			case r, ok := <-pending:
				if !ok {
					fed, deadline = false, time.Now().Add(drainLimit)
					break drain
				}
				open = append(open, r)
			default:
				break drain
			}
		}
		if !fed && time.Now().After(deadline) {
			for _, r := range open {
				r.failed = "not done within the drain limit"
			}
			return
		}
		still := open[:0]
		for _, r := range open {
			t0 := time.Now()
			resp, body, err := c.do("GET", "/jobs/"+r.id, "")
			if r.traced {
				r.polls = append(r.polls, [2]time.Time{t0, time.Now()})
			}
			var v struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			switch {
			case err != nil:
				r.failed = err.Error()
			case resp.StatusCode != http.StatusOK:
				r.failed = fmt.Sprintf("status: %s", resp.Status)
			case json.Unmarshal(body, &v) != nil:
				r.failed = "status: undecodable"
			case v.Status == string(server.StatusDone):
				if !r.ran[0].IsZero() {
					r.ran[1] = t0
				}
				c.fetchResult(r)
			case v.Status == string(server.StatusRunning):
				if r.ran[0].IsZero() {
					r.ran[0] = t0
				}
				still = append(still, r)
			case v.Status == string(server.StatusQueued):
				still = append(still, r)
			default:
				r.failed = fmt.Sprintf("job %s: %s %s", r.id, v.Status, v.Error)
			}
		}
		open = still
		time.Sleep(pollEvery)
	}
}

// runNocd drives an in-process daemon with the open-loop mix over HTTP,
// then checks and attributes what it saw.
func runNocd(b *bench) error {
	// Half the daemon starts are timed before the load phase and half
	// after it, 50 ms apart, so their median does not sample the host's
	// speed at a single instant (see setupPerJob).
	var starts []float64
	var d *daemon
	for i := 0; i <= setupReps/2; i++ {
		if d != nil {
			d.stop()
			time.Sleep(setupGap)
		}
		var t float64
		var err error
		if d, t, err = b.timeStart(); err != nil {
			return err
		}
		starts = append(starts, t)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	sched := schedule(b.seed, b.seconds)
	c := newClient(d.http.URL)
	defer c.hc.CloseIdleConnections()
	start := time.Now().Add(20 * time.Millisecond)
	recs := make([]*jobRec, len(sched))
	for i := range sched {
		recs[i] = &jobRec{sj: &sched[i], due: start.Add(sched[i].due), traced: b.opTracer(i) != nil}
	}
	// pending is sized to the schedule so the generator never blocks on
	// the poller.
	pending := make(chan *jobRec, len(recs))
	var mem memSpan
	mem.start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.poll(pending)
	}()
	c.generate(recs, pending)
	wg.Wait()
	mem.stop()

	_, readyBody, err := c.do("GET", "/readyz", "")
	if err != nil {
		return err
	}
	var ready struct {
		Cache artifact.Stats `json:"cache"`
	}
	if err := json.Unmarshal(readyBody, &ready); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}

	// Accounting and output checks.
	b.rep.attempted += len(recs)
	coldBody := map[string][]byte{}
	var refused, hits, coalesced, accepted int
	var late, idleLate, submit []float64
	var kcycles float64
	for _, r := range recs {
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.idle {
			idleLate = append(idleLate, ms(r.sent.Sub(r.due)))
		}
		if r.id != "" {
			accepted++
			submit = append(submit, ms(r.accepted.Sub(r.sent)))
		}
		if r.refused {
			refused++
		}
		if r.failed == "" && r.disposition == "miss" {
			coldBody[r.sj.body] = r.body
			kcycles += float64(r.sj.cycles) / 1000
		}
		switch r.disposition {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
	}
	for _, r := range recs {
		if r.failed != "" {
			b.rep.fail("job %d (%s): %s", r.sj.due.Milliseconds(), r.sj.body, r.failed)
			continue
		}
		if r.disposition == "miss" {
			continue
		}
		want, ok := coldBody[r.sj.body]
		if !ok || !bytes.Equal(want, r.body) {
			b.rep.fail("%s job %s: result differs from its spec's cold result", r.disposition, r.id)
		}
	}
	for _, r := range recs {
		if r.traced {
			b.traceJob(r)
		}
	}

	cls := splitLatencies(recs)
	b.rep.set("cold_p50_ms", median(cls.cold), len(cls.cold))
	b.rep.set("cold_p95_ms", percentile(cls.cold, 95), len(cls.cold))
	b.rep.set("warm_p50_ms", median(cls.warm), len(cls.warm))
	fmt.Printf("nocd-mixed: %d jobs: %d cold (p95 has %d beyond), %d warm (p95 %.3g ms), %d coalesced (p50 %.3g ms), %d refused; poll resolution %v; idle generator late p99 %.3g ms\n",
		len(recs), len(cls.cold), beyond(cls.cold, 95), len(cls.warm), percentile(cls.warm, 95),
		len(cls.coalesced), median(cls.coalesced), refused, pollEvery, percentile(idleLate, 99))
	byClass := map[string][]float64{}
	for _, r := range recs {
		if r.failed == "" && r.disposition == "miss" {
			byClass[coldClass(r)] = append(byClass[coldClass(r)], ms(r.done.Sub(r.due)))
		}
	}
	// The tracing overhead compares cold latencies relative to their
	// class's median, so the traced and untraced halves need not hold
	// the same mix of slow and fast classes.
	for i, r := range recs {
		if r.failed == "" && r.disposition == "miss" {
			b.sample(i, ms(r.done.Sub(r.due))/median(byClass[coldClass(r)]))
		}
	}
	classes := make([]string, 0, len(byClass))
	for class := range byClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		l := byClass[class]
		fmt.Printf("nocd-mixed: cold %-12s n=%3d p50 %6.3g ms p95 %6.3g ms\n", class, len(l), median(l), percentile(l, 95))
	}
	if p := percentile(idleLate, 99); p > float64(lateLimit)/float64(time.Millisecond) {
		b.rep.fail("generator woke %.3g ms late at p99 (limit %v): the client, not the daemon, fell behind; run invalid", p, lateLimit)
	}

	d.stop()
	stopped = true
	busy := observedRuns(recs)
	b.rep.set("sim_cycles_per_s", busy.simCycles/busy.simRun.Seconds(), busy.simJobs)
	var last time.Time
	for _, r := range recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	// The share of the load phase the daemon's worker slots spent
	// running jobs, scaled up from the cold jobs whose run the poller saw
	// to all of them. Each job runs on up to nproc partitions, so two
	// jobs running at once slow each other: the slots' busy share is not
	// the host's, and it does not extrapolate to capacity.
	busyFrac := busy.run.Seconds() * float64(busy.cold) / float64(busy.jobs) /
		(daemonWorkers * last.Sub(start).Seconds())
	fmt.Printf("nocd-mixed: offered %.1f jobs/s; run seen for %d of %d cold jobs; worker slots busy %.2f of the time\n",
		float64(len(recs))/b.seconds.Seconds(), busy.jobs, busy.cold, busyFrac)
	for i := 0; i < setupReps/2; i++ {
		time.Sleep(setupGap)
		d, t, err := b.timeStart()
		if err != nil {
			return err
		}
		d.stop()
		starts = append(starts, t)
	}
	b.rep.set("setup_s", median(starts)/1000, len(starts))
	runs, err := b.crossCheck(recs)
	if err != nil {
		return err
	}

	if b.tr == nil {
		return nil
	}
	b.rep.set("server.submit_ms_p50", median(submit), len(submit))
	b.rep.set("server.hit_ratio", float64(hits)/float64(accepted), accepted)
	b.rep.set("server.coalesced_frac", float64(coalesced)/float64(accepted), accepted)
	b.rep.set("server.refused_frac", float64(refused)/float64(len(recs)), len(recs))
	b.rep.set("loadgen.late_ms_p99", percentile(late, 99), len(late))
	b.rep.set("artifact.hits", float64(ready.Cache.Hits), 1)
	b.rep.set("artifact.misses", float64(ready.Cache.Misses), 1)
	b.rep.set("artifact.puts", float64(ready.Cache.Puts), 1)
	b.rep.set("artifact.disk_bytes", float64(ready.Cache.DiskBytes), 1)
	mem.report(b.rep, kcycles)
	var runMS, wait []float64
	for r, run := range runs {
		runMS = append(runMS, ms(run))
		wait = append(wait, ms(r.done.Sub(r.due)-r.accepted.Sub(r.sent)-run))
	}
	b.rep.set("server.run_ms_p50", median(runMS), len(runMS))
	b.rep.set("server.worker_busy_frac", busyFrac, busy.jobs)
	b.rep.set("server.queue_wait_ms_p50", median(wait), len(wait))
	zero(b.rep, servingLayers...)
	b.rep.set("experiments.slice_ms_p50", 0, 0)
	b.rep.set("noc.ns_per_hop", 0, 0)
	b.rep.set("noc.hops_per_cycle", 0, 0)
	b.rep.set("noc.deflections_per_flit", 0, 0)
	return b.serviceLayers(recs, d.store)
}

// setupGap spaces out the timed daemon starts.
const setupGap = 50 * time.Millisecond

// timeStart starts a daemon in a fresh cache directory and returns it
// with its start-up time in milliseconds.
func (b *bench) timeStart() (*daemon, float64, error) {
	runtime.GC()
	t0 := time.Now()
	d, err := startDaemon(b.work)
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	b.tr.add("server.start", -1, -1, t0, t1)
	return d, ms(t1.Sub(t0)), nil
}

// runSeen sums the runs of cold jobs the poller saw start and finish:
// from the poll that first saw a job running to the poll that saw it
// done, so each end is late by up to one poll sweep. Sim and serving
// jobs also sum their simulated cycles, which over their run time is the
// simulation rate of the daemon's workers: queueing, HTTP and polling
// are left out, system set-up is not.
type runSeen struct {
	cold, jobs int           // cold jobs, and those whose run was seen
	run        time.Duration // total seen run time
	simJobs    int
	simCycles  float64
	simRun     time.Duration
}

func observedRuns(recs []*jobRec) runSeen {
	var s runSeen
	for _, r := range recs {
		if r.failed != "" || r.disposition != "miss" {
			continue
		}
		s.cold++
		if r.ran[1].IsZero() {
			continue
		}
		d := r.ran[1].Sub(r.ran[0])
		s.jobs++
		s.run += d
		if r.sj.cycles > 0 {
			s.simJobs++
			s.simCycles += float64(r.sj.cycles)
			s.simRun += d
		}
	}
	return s
}

// coldClass names a cold job's latency class: its sim topology or its
// job kind.
func coldClass(r *jobRec) string {
	if r.sj.sim != nil {
		return r.sj.sim.Topology
	}
	return r.sj.kind
}

// traceJob records one job's spans: the job from due time to result,
// and inside it the submission, each status poll and the result GET.
func (b *bench) traceJob(r *jobRec) {
	if b.tr == nil || r.sent.IsZero() {
		return
	}
	end := r.done
	if end.IsZero() {
		end = r.accepted
	}
	idx := int(r.sj.due / time.Microsecond)
	root := b.tr.add("loadgen.job", idx, -1, r.due, end)
	b.tr.add("http.post", idx, root, r.sent, r.accepted)
	for _, p := range r.polls {
		b.tr.add("http.poll", idx, root, p[0], p[1])
	}
	if !r.fetch.IsZero() {
		b.tr.add("http.result", idx, root, r.fetch, r.done)
	}
}

// crossCheck re-runs a fixed sample of the cold jobs in-process at the
// daemon's engine setting and compares every result with the daemon's
// bytes: the first checkPerTopology cold jobs of each sim topology and
// the first checkServing cold serving jobs. It returns each re-run's
// wall time.
func (b *bench) crossCheck(recs []*jobRec) (map[*jobRec]time.Duration, error) {
	runs := map[*jobRec]time.Duration{}
	taken := map[string]int{}
	for i, r := range recs {
		if r.failed != "" || r.disposition != "miss" || r.sj.kind == "experiment" {
			continue
		}
		class, limit := r.sj.kind, checkServing
		if r.sj.sim != nil {
			class, limit = r.sj.sim.Topology, checkPerTopology
		}
		if taken[class] >= limit {
			continue
		}
		taken[class]++
		var got string
		t0 := time.Now()
		if r.sj.sim != nil {
			res, err := experiments.RunSim(*r.sj.sim, nil, nil)
			if err != nil {
				return nil, err
			}
			got = res.CSV()
		} else {
			var js server.JobSpec
			if err := json.Unmarshal([]byte(r.sj.body), &js); err != nil {
				return nil, err
			}
			res, err := experiments.RunServingDoc(string(js.Serving), experiments.Quick)
			if err != nil {
				return nil, err
			}
			experiments.DrainTimings()
			got = res.CSV()
		}
		t1 := time.Now()
		b.tr.add("server.run", i, -1, t0, t1)
		runs[r] = t1.Sub(t0)
		b.rep.attempted++
		if got != string(r.body) {
			b.rep.fail("cold job %s: daemon result differs from an in-process run of the same spec", r.id)
		}
	}
	return runs, nil
}

// serviceLayers times the service's layers by calling them directly
// with this run's inputs: spec parsing and hashing, cache reads from the
// daemon's own store and durable writes to a fresh one, and the build
// and engine counters of the jobs' systems at the daemon's setting.
func (b *bench) serviceLayers(recs []*jobRec, store *artifact.Store) error {
	var parse, key, get, put []float64
	seen := map[string]bool{}
	putDir, err := os.MkdirTemp(b.work, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	fresh, err := artifact.Open(artifact.Config{Dir: putDir})
	if err != nil {
		return err
	}
	for i, r := range recs {
		if seen[r.sj.body] || r.failed != "" {
			continue
		}
		seen[r.sj.body] = true
		t0 := time.Now()
		js, err := server.ParseJobSpec([]byte(r.sj.body))
		t1 := time.Now()
		if err != nil {
			return err
		}
		k, err := server.JobKey(js)
		t2 := time.Now()
		if err != nil {
			return err
		}
		payload, ok := store.Get(k)
		t3 := time.Now()
		b.tr.add("server.parse", i, -1, t0, t1)
		b.tr.add("server.jobkey", i, -1, t1, t2)
		b.tr.add("artifact.get", i, -1, t2, t3)
		parse = append(parse, us(t1.Sub(t0)))
		key = append(key, us(t2.Sub(t1)))
		if !ok {
			continue
		}
		get = append(get, us(t3.Sub(t2)))
		t4 := time.Now()
		if err := fresh.Put(k, payload); err != nil {
			return err
		}
		t5 := time.Now()
		b.tr.add("artifact.put", i, -1, t4, t5)
		put = append(put, ms(t5.Sub(t4)))
	}
	b.rep.set("server.parse_us", median(parse), len(parse))
	b.rep.set("server.jobkey_us", median(key), len(key))
	b.rep.set("artifact.get_us", median(get), len(get))
	b.rep.set("artifact.put_ms", median(put), len(put))

	// The quick AI die a cold ai-processor sim job builds (RunSim's quick
	// scale), and the serving system of a cold serving job.
	cfg := soc.DefaultAIConfig()
	cfg.VRings, cfg.HRings = 4, 2
	cfg.CoresPerVRing, cfg.L2PerHRing = 2, 4
	cfg.HBMStacks, cfg.DMAEngines = 2, 2
	cfg.Seed = b.seed
	var socBuild, servBuild []float64
	var die *soc.AIProcessor
	_, spec, err := experiments.NormalizeServingDoc(fmt.Sprintf(servingJobDoc, b.seed), experiments.Quick)
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		die = soc.BuildAIProcessor(cfg)
		t1 := time.Now()
		if _, err := serving.Build(spec, 0); err != nil {
			return err
		}
		t2 := time.Now()
		b.tr.add("soc.build", -1, -1, t0, t1)
		b.tr.add("serving.build", -1, -1, t1, t2)
		socBuild = append(socBuild, ms(t1.Sub(t0)))
		servBuild = append(servBuild, ms(t2.Sub(t1)))
	}
	b.rep.set("soc.build_ms", median(socBuild), len(socBuild))
	b.rep.set("serving.build_ms", median(servBuild), len(servBuild))
	die.Net.SetPartitions(experiments.SimPartitions())
	nocCounters(b.rep, die.Net, 3000, die.Run)
	return nil
}
