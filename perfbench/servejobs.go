package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/serve"
)

// serve-jobs drives an in-process aldaserve through its HTTP handler
// with a closed loop: each of serveClients clients submits a job with
// POST /v1/jobs?wait=1 and sends the next only when the reply is in.
const (
	serveClients   = 2 // one per core of the 2-core reference host
	serveShards    = 2
	serveJobCount  = 2048 // distinct generated jobs the clients cycle through
	servePrepop    = 1000 // finished jobs in the journal a restart recovers
	serveSegment   = time.Second
	servePasses    = 5 // reference passes per pause between segments
	serveRSSJobs   = 8000
	serveExecJobs  = 256 // jobs also run through serve.Execute directly (traced run)
	serveSideAppds = 512 // accept+done pairs appended to the side journal (traced run)

	// serveSyncEvery batches journal fsyncs so that one sync lands at
	// close. The benchmark may write only inside its checkout, which
	// sits on a shared disk whose fsync latency, not the server, would
	// set the figures; batching gives the behaviour of a journal on
	// tmpfs while every record still goes through the journal's write
	// path.
	serveSyncEvery = 1 << 20
)

// jobSample is one completed closed-loop request.
type jobSample struct {
	seg   int
	lat   time.Duration
	steps float64
}

type serveBench struct {
	cfg  config
	rng  *rand.Rand
	clk  *refClock
	tr   *tracer
	t    *tally
	jobs []genJob
	dir  string
	mu   sync.Mutex // guards t during the closed loop

	// loadDone counts load-phase jobs; the client that completes job
	// serveRSSJobs reads the resident-set high-water mark, so
	// peak_rss_mb covers a fixed amount of retained work however fast
	// the host runs the loop.
	loadDone atomic.Int64
	rssMiB   float64
	rssErr   error
}

// liveServer is a running serve.Server and the HTTP handler it
// mounts. Requests go to the handler in process, so the figures carry
// the server's own HTTP/JSON work but not the kernel's loopback TCP
// stack, which is no part of the system and adds host noise.
type liveServer struct {
	srv *serve.Server
	h   http.Handler
}

func (b *serveBench) start(journal string) (*liveServer, error) {
	id := b.tr.begin("serve.New", journal, 0)
	srv, err := serve.New(serve.Config{
		Shards: serveShards, WorkersPerShard: 1,
		JournalPath: journal, JournalSyncEvery: serveSyncEvery,
	})
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &liveServer{srv: srv, h: srv.Handler()}, nil
}

// stop drains the server and closes its journal.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ls.srv.Shutdown(ctx)
}

// submit posts req, waits for its terminal status and checks the
// verdict against want. It returns the latency and the program steps
// analyzed; what names the request in mismatch reports.
func (b *serveBench) submit(ls *liveServer, what string, req *serve.JobRequest, want verdict) (time.Duration, float64, bool) {
	body, err := json.Marshal(req)
	if err != nil {
		b.fail(what, err)
		return 0, 0, false
	}
	start := time.Now()
	rec := httptest.NewRecorder()
	ls.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
	resp := rec.Result()
	var st serve.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	lat := time.Since(start)
	switch {
	case derr != nil:
		b.fail(what, derr)
	case resp.StatusCode != http.StatusOK || st.State != serve.StateDone || st.Result == nil:
		b.fail(what, fmt.Errorf("HTTP %d, state %q, error %+v", resp.StatusCode, st.State, st.Error))
	default:
		got, err := jobVerdictOf(st.Result.Reports)
		if err != nil {
			b.fail(what, err)
			return lat, 0, false
		}
		b.mu.Lock()
		ok := b.t.check(what, got, want)
		b.mu.Unlock()
		return lat, float64(st.Result.Steps - st.Result.HookCalls), ok
	}
	return lat, 0, false
}

func (b *serveBench) fail(what string, err error) {
	b.mu.Lock()
	b.t.fail(what, err)
	b.mu.Unlock()
}

// closedLoop runs serveClients clients against ls until until, taking
// job indices from next below limit. traced wraps each request in a
// span.
func (b *serveBench) closedLoop(ls *liveServer, next *atomic.Int64, limit int64, until time.Time, seg int, traced bool) []jobSample {
	var wg sync.WaitGroup
	out := make([][]jobSample, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				n := next.Add(1) - 1
				if n >= limit {
					return
				}
				i := int(n)
				id := 0
				if traced {
					id = b.tr.begin("serve.Handler", strconv.Itoa(i%len(b.jobs)), 0)
				}
				j := &b.jobs[i%len(b.jobs)]
				lat, steps, ok := b.submit(ls, "serve job "+strconv.Itoa(i%len(b.jobs)), &j.Req, j.Expect)
				b.tr.end(id)
				if seg >= 0 && b.loadDone.Add(1) == serveRSSJobs {
					b.rssMiB, b.rssErr = peakRSSMiB()
				}
				if ok {
					out[c] = append(out[c], jobSample{seg: seg, lat: lat, steps: steps})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []jobSample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// pause runs between load segments, while the loop is idle: it lets
// the collector finish the garbage the segment left, so the reference
// passes do not run beside it, then runs servePasses passes.
func (b *serveBench) pause() {
	runtime.GC()
	for i := 0; i < servePasses; i++ {
		b.clk.tick()
	}
}

func (b *serveBench) restartJournal() string { return filepath.Join(b.dir, "restart.journal") }

// copyFile copies a journal so each restart recovers the same state.
func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

func runServeJobs(cfg config) (metricSet, *tally, *tracer, error) {
	dir := filepath.Join(buildDir, fmt.Sprintf("serve-jobs-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(dir)
	b := &serveBench{
		cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)),
		clk: newRefClock(newServeRef().run), tr: newTracer(cfg.trace), t: &tally{},
		jobs: generateJobs(cfg.seed, serveJobCount), dir: dir,
	}
	m := newMetricSet(cfg.metrics)
	if err := b.run(m); err != nil {
		return nil, nil, nil, err
	}
	return m, b.t, b.tr, nil
}

func (b *serveBench) run(m metricSet) error {
	// Pre-populate the journal: servePrepop jobs run to completion, so
	// every restart recovers them.
	seedJournal := filepath.Join(b.dir, "prepop.journal")
	ls, err := b.start(seedJournal)
	if err != nil {
		return err
	}
	var next atomic.Int64
	b.closedLoop(ls, &next, servePrepop, time.Now().Add(time.Hour), -1, false)
	if err := ls.stop(); err != nil {
		return err
	}

	setup, err := b.setupSeconds(seedJournal)
	if err != nil {
		return err
	}
	if b.cfg.trace {
		b.coldCompiles()
	}

	// The load server recovers the same journal, so it retains the
	// pre-populated jobs and every job the loop adds.
	journal := filepath.Join(b.dir, "load.journal")
	if err := copyFile(journal, seedJournal); err != nil {
		return err
	}
	ls, err = b.start(journal)
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	hits0, miss0, _ := compiler.CompileCacheStats()
	next.Store(int64(b.rng.Intn(serveJobCount)))
	var samples []jobSample
	type segment struct {
		wall   time.Duration
		ref    int // first reference pass after the segment
		traced bool
	}
	var segs []segment
	deadline := time.Now().Add(b.cfg.seconds)
	for seg := 0; time.Now().Before(deadline); seg++ {
		// Tracing alternates by segment in the traced run, so the
		// traced and untraced halves see the same host conditions.
		traced := b.cfg.trace && seg%2 == 1
		b.pause()
		start := time.Now()
		samples = append(samples, b.closedLoop(ls, &next, math.MaxInt64, start.Add(serveSegment), seg, traced)...)
		segs = append(segs, segment{wall: time.Since(start), ref: len(b.clk.samples), traced: traced})
	}
	b.pause()
	hits1, miss1, _ := compiler.CompileCacheStats()
	heap1 := liveHeap()
	if err := ls.stop(); err != nil {
		return err
	}
	if b.rssErr != nil {
		return b.rssErr
	}
	if b.rssMiB == 0 {
		// A host too slow to reach serveRSSJobs in the run: take the
		// mark at the end instead.
		var err error
		if b.rssMiB, err = peakRSSMiB(); err != nil {
			return err
		}
	}

	// Each segment is rescaled by the passes in the pauses on either
	// side of it.
	segScale := func(s segment) float64 { return b.clk.scaleOver(s.ref-servePasses, s.ref+servePasses) }
	jobs := make([]float64, len(segs))
	steps := make([]float64, len(segs))
	var lat []float64
	for _, s := range samples {
		jobs[s.seg]++
		steps[s.seg] += s.steps
		lat = append(lat, float64(s.lat)/1e6*segScale(segs[s.seg]))
	}
	var rawRate, jobRate, stepRate, tracedRate, untracedRate []float64
	for i, s := range segs {
		sec := s.wall.Seconds() * segScale(s)
		rawRate = append(rawRate, jobs[i]/s.wall.Seconds())
		jobRate = append(jobRate, jobs[i]/sec)
		stepRate = append(stepRate, steps[i]/sec/1e6)
		if s.traced {
			tracedRate = append(tracedRate, jobs[i]/sec)
		} else {
			untracedRate = append(untracedRate, jobs[i]/sec)
		}
	}
	if !b.cfg.trace {
		m.set("setup_s", setup)
		m.set("analyzed_msteps_per_s", median(stepRate))
		m.set("jobs_per_s", median(jobRate))
		m.set("job_ms_p50", quantile(lat, 0.5))
		m.set("job_ms_p99", quantile(lat, 0.99))
		m.set("peak_rss_mb", b.rssMiB)
		m.set("ok_rate", b.t.okRate())
		fmt.Fprintf(os.Stderr, "serve-jobs: %d jobs in %d segments, raw %.1f jobs/s, reference pass %.3f ms\n",
			len(samples), len(segs), median(rawRate), b.clk.medianNS()/1e6)
		return nil
	}

	if err := b.executeDirect(); err != nil {
		return err
	}
	if err := b.sideJournal(); err != nil {
		return err
	}
	sc := b.clk.runScale()
	var exec, over []float64
	for i := 0; i < serveExecJobs; i++ {
		key := strconv.Itoa(i)
		e := b.tr.spansOf("serve.Execute", key)
		h := b.tr.spansOf("serve.Handler", key)
		if len(e) == 0 || len(h) == 0 {
			continue
		}
		var hs []float64
		for _, s := range h {
			hs = append(hs, float64(s.dur()))
		}
		exec = append(exec, float64(e[0].dur())*sc/1e6)
		over = append(over, (median(hs)-float64(e[0].dur()))*sc/1e6)
	}
	var appends []float64
	appends = append(appends, b.tr.durations("serve.Journal.AppendAccept")...)
	appends = append(appends, b.tr.durations("serve.Journal.AppendDone")...)
	m.set("serve.execute_ms", median(exec))
	m.set("serve.overhead_ms", median(over))
	m.set("serve.journal_append_us", median(appends)*sc/1e3)
	var recovers []float64
	for _, s := range b.tr.spansOf("serve.New", b.restartJournal()) {
		recovers = append(recovers, float64(s.dur()))
	}
	m.set("serve.recover_ms", median(recovers)*sc/1e6)
	m.set("compiler.compile_ms", median(b.tr.durations("compiler.Compile"))*sc/1e6)
	if n := float64(len(samples)); n > 0 {
		m.set("serve.heap_kb_per_job", (heap1-heap0)/1024/n)
	}
	if h, mi := float64(hits1-hits0), float64(miss1-miss0); h+mi > 0 {
		m.set("compiler.cache_hit_ratio", h/(h+mi))
	}
	if t := median(tracedRate); t > 0 {
		m.set("obs.trace_overhead_x", median(untracedRate)/t)
	}
	m.set("ref.kernel_ms", b.clk.medianNS()/1e6)
	return nil
}

// setupSeconds times setupReps server restarts, each over a fresh copy
// of the pre-populated journal and with the compile cache emptied as a
// new process would find it, until the first job's verdict is in.
func (b *serveBench) setupSeconds(seedJournal string) (float64, error) {
	journal := b.restartJournal()
	return b.clk.medianSeconds(setupReps, func() (time.Duration, error) {
		if err := copyFile(journal, seedJournal); err != nil {
			return 0, err
		}
		compiler.ResetCompileCache()
		start := time.Now()
		ls, err := b.start(journal)
		if err != nil {
			return 0, err
		}
		_, _, ok := b.submit(ls, "restart probe", &probeJob, nil)
		d := time.Since(start)
		if err := ls.stop(); err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("the first job after a restart failed")
		}
		return d, nil
	})
}

// probeJob is the job every restart waits for: the same on every
// seed, so setup_s does not depend on which generated job came first.
// It needs the combined analysis, the costliest cold compile.
var probeJob = serve.JobRequest{MIR: jobProgram(64, 1, true, true, bugNone, 0).String(), Analysis: "uaf+msan"}

// coldCompiles times a cold compile of each analysis the jobs use.
func (b *serveBench) coldCompiles() {
	for _, a := range jobAnalyses {
		compiler.ResetCompileCache()
		id := b.tr.begin("compiler.Compile", a, 0)
		var err error
		if a == "uaf+msan" {
			_, err = analyses.CompileCombined(compiler.DefaultOptions(), "uaf", "msan")
		} else {
			_, err = analyses.Compile(a, compiler.DefaultOptions())
		}
		b.tr.end(id)
		if err != nil {
			b.t.fail("compiling "+a, err)
		}
	}
}

// executeDirect runs the first serveExecJobs jobs through serve.Execute,
// the server's execution path without HTTP, admission, queue or
// journal, and checks their verdicts.
func (b *serveBench) executeDirect() error {
	for i := 0; i < serveExecJobs; i++ {
		j := &b.jobs[i]
		id := b.tr.begin("serve.Execute", strconv.Itoa(i), 0)
		res, jerr := serve.Execute(&j.Req, serve.DefaultLimits(), nil)
		b.tr.end(id)
		if jerr != nil {
			b.t.fail("serve.Execute job "+strconv.Itoa(i), fmt.Errorf("%s: %s", jerr.Kind, jerr.Message))
			continue
		}
		got, err := jobVerdictOf(res.Reports)
		if err != nil {
			return err
		}
		b.t.check("serve.Execute job "+strconv.Itoa(i), got, j.Expect)
	}
	return nil
}

// sideJournal times the public append calls on a journal of its own,
// opened with the server's sync setting.
func (b *serveBench) sideJournal() error {
	jn, _, err := serve.OpenJournal(filepath.Join(b.dir, "side.journal"), "perfbench side journal", serveSyncEvery, serve.JournalFaults{})
	if err != nil {
		return err
	}
	for i := 0; i < serveSideAppds; i++ {
		j := &b.jobs[i%len(b.jobs)]
		jid := "j" + strconv.Itoa(i+1)
		id := b.tr.begin("serve.Journal.AppendAccept", jid, 0)
		err := jn.AppendAccept(uint64(i+1), jid, "", &j.Req)
		b.tr.end(id)
		if err != nil {
			return err
		}
		st := &serve.JobStatus{ID: jid, State: serve.StateDone, Result: &serve.JobResult{}}
		id = b.tr.begin("serve.Journal.AppendDone", jid, 0)
		err = jn.AppendDone(st)
		b.tr.end(id)
		if err != nil {
			return err
		}
	}
	return jn.Close()
}

// liveHeap is the heap in use after a full collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
