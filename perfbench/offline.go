package main

import (
	"embed"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/analyses"
	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Null analyses: the real analyses' insertion points with empty
// handler bodies (see null/). A run under one pays hook dispatch only.
//
//go:embed null/*.alda
var nullFS embed.FS

// offlineSpec is an offline workload: one ALDA analysis run serially,
// one program at a time, over a suite at size small plus one program
// with a planted bug.
type offlineSpec struct {
	name     string
	analysis string
	suite    string
	bugProg  string
	bug      workloads.Bug
	hand     func() baselines.Baseline
}

var offlineSpecs = map[string]offlineSpec{
	"msan-spec": {
		name: "msan-spec", analysis: "msan", suite: "specint",
		bugProg: "gcc", bug: workloads.BugUninit,
		hand: func() baselines.Baseline { return baselines.NewMSan(1 << 28) },
	},
	"eraser-splash": {
		name: "eraser-splash", analysis: "eraser", suite: "splash2",
		bugProg: "radiosity", bug: workloads.BugRace,
		hand: func() baselines.Baseline { return baselines.NewEraser() },
	},
}

// setupReps is how many cold set-ups a run times; setup_s is their
// median, since one set-up takes only tens of milliseconds.
const setupReps = 21

type program struct {
	label string // "gcc", or "gcc/uninit" for the planted bug
	name  string
	bug   workloads.Bug
	plain *mir.Program
	inst  *mir.Program // instrumented with the ALDA analysis
}

// programs lists the workload's programs in a fixed order.
func (s offlineSpec) programs() []*program {
	var out []*program
	for _, n := range workloads.Suite(s.suite) {
		out = append(out, &program{label: n, name: n})
	}
	return append(out, &program{label: s.bugProg + "/" + s.bug.String(), name: s.bugProg, bug: s.bug})
}

// offline is one run of an offline workload.
type offline struct {
	spec   offlineSpec
	cfg    config
	rng    *rand.Rand
	clk    *refClock
	tr     *tracer
	t      *tally
	expect map[string]verdict
	a      *compiler.Analysis
	progs  []*program
}

func newOffline(spec offlineSpec, cfg config) (*offline, error) {
	expect, err := loadExpect(spec.name)
	if err != nil {
		return nil, err
	}
	for _, p := range spec.programs() {
		if _, ok := expect[p.label]; !ok {
			return nil, fmt.Errorf("expect/%s.txt has no verdict for %s", spec.name, p.label)
		}
	}
	return &offline{
		spec: spec, cfg: cfg, expect: expect,
		rng: rand.New(rand.NewSource(cfg.seed)),
		clk: newRefClock(newRefKernel().run),
		tr:  newTracer(cfg.trace),
		t:   &tally{},
	}, nil
}

// setup is the cold path a user pays before the first analysis run:
// build every program, compile the analysis with the compile cache
// emptied, and instrument every program.
func (o *offline) setup() (time.Duration, error) {
	compiler.ResetCompileCache()
	start := time.Now()
	root := o.tr.begin("setup", o.spec.name, 0)
	defer o.tr.end(root)
	progs := o.spec.programs()
	for _, p := range progs {
		id := o.tr.begin("workloads.Build", p.label, root)
		var err error
		p.plain, err = workloads.BuildBug(p.name, workloads.SizeSmall, p.bug)
		o.tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	id := o.tr.begin("compiler.Compile", o.spec.analysis, root)
	a, err := analyses.Compile(o.spec.analysis, compiler.DefaultOptions())
	o.tr.end(id)
	if err != nil {
		return 0, err
	}
	for _, p := range progs {
		id := o.tr.begin("instrument.Apply", p.label, root)
		p.inst, err = instrument.Apply(p.plain, a)
		o.tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	o.a, o.progs = a, progs
	return d, nil
}

// runALDA runs program p under the ALDA analysis and checks its
// verdict. It returns the wall time and the program steps analyzed
// (retired steps minus the hook calls the instrumentation added).
func (o *offline) runALDA(p *program, seed int64) (time.Duration, float64, bool) {
	start := time.Now()
	res, err := core.RunInstrumented(p.inst, o.a, core.RunOptions{Seed: seed})
	d := time.Since(start)
	if err != nil {
		o.t.fail(o.spec.analysis+" on "+p.label, err)
		return d, 0, false
	}
	o.t.check(o.spec.analysis+" on "+p.label, reportVerdict(res.Reports), o.expect[p.label])
	return d, float64(res.Steps - res.HookCalls), true
}

// rep is one timed analysis run.
type rep struct {
	round int
	prog  int
	raw   time.Duration
	steps float64
	ref   int // reference pass taken just before the run
}

// throughput is the workload's headline figure over a set of reps:
// per program the median of steps per second, then the geometric mean
// over programs, in Msteps/s. scaled selects reference-normalized or
// raw time.
func (o *offline) throughput(reps []rep, scaled bool) float64 {
	per := make([][]float64, len(o.progs))
	for _, r := range reps {
		sec := r.raw.Seconds()
		if scaled {
			sec *= o.clk.scale(r.ref)
		}
		per[r.prog] = append(per[r.prog], r.steps/sec/1e6)
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// measure runs whole rounds, every program once per round in a seeded
// order, until d has passed. Each run is preceded by a reference pass.
// extra, when non-nil, runs after each timed run (the traced legs).
func (o *offline) measure(d time.Duration, extra func(p *program, seed int64)) []rep {
	var reps []rep
	deadline := time.Now().Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		for _, i := range o.rng.Perm(len(o.progs)) {
			p := o.progs[i]
			seed := o.rng.Int63()
			ref := o.clk.tick()
			raw, steps, ok := o.runALDA(p, seed)
			if ok {
				reps = append(reps, rep{round: round, prog: i, raw: raw, steps: steps, ref: ref})
			}
			if extra != nil {
				extra(p, seed)
			}
		}
	}
	o.clk.tick()
	return reps
}

func runOffline(spec offlineSpec, cfg config) (metricSet, *tally, *tracer, error) {
	o, err := newOffline(spec, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	setup, err := o.clk.medianSeconds(setupReps, o.setup)
	if err != nil {
		return nil, nil, nil, err
	}
	// Warm-up round: lazy state settles and every verdict is checked
	// once before timing starts.
	for _, p := range o.progs {
		o.runALDA(p, o.rng.Int63())
	}
	m := newMetricSet(cfg.metrics)
	if cfg.trace {
		if err := o.layers(m); err != nil {
			return nil, nil, nil, err
		}
		return m, o.t, o.tr, nil
	}
	reps := o.measure(cfg.seconds, nil)
	// An offline job is one round: the analysis over every program of
	// the suite once. Its latency is the sum of its rescaled runs.
	roundMS := map[int]float64{}
	runs := map[int]int{}
	for _, r := range reps {
		roundMS[r.round] += float64(r.raw) / 1e6 * o.clk.scale(r.ref)
		runs[r.round]++
	}
	var lat []float64
	var total float64
	for round, ms := range roundMS {
		if runs[round] == len(o.progs) {
			lat = append(lat, ms)
			total += ms
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d rounds, raw %.3f Msteps/s, reference pass %.3f ms\n",
		spec.name, len(lat), o.throughput(reps, false), o.clk.medianNS()/1e6)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, nil, err
	}
	m.set("setup_s", setup)
	m.set("analyzed_msteps_per_s", o.throughput(reps, true))
	m.set("jobs_per_s", float64(len(lat))/total*1e3)
	m.set("job_ms_p50", quantile(lat, 0.5))
	m.set("job_ms_p99", quantile(lat, 0.99))
	m.set("peak_rss_mb", rss)
	m.set("ok_rate", o.t.okRate())
	return m, o.t, o.tr, nil
}

// legs are the builds the traced run times next to the ALDA analysis.
type legs struct {
	null, dsOnly       *compiler.Analysis
	nullInst, dsInst   map[*program]*mir.Program
	steps, hooks       map[*program]float64
	handHooks          map[*program]float64
	metaOps, hits, mis float64
}

func (o *offline) buildLegs() (*legs, error) {
	src, err := nullFS.ReadFile("null/" + o.spec.analysis + ".alda")
	if err != nil {
		return nil, err
	}
	l := &legs{
		nullInst: map[*program]*mir.Program{}, dsInst: map[*program]*mir.Program{},
		steps: map[*program]float64{}, hooks: map[*program]float64{}, handHooks: map[*program]float64{},
	}
	if l.null, err = compiler.Compile(string(src), compiler.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("compiling null %s: %w", o.spec.analysis, err)
	}
	if l.dsOnly, err = analyses.Compile(o.spec.analysis, compiler.DSOnlyOptions()); err != nil {
		return nil, err
	}
	for _, p := range o.progs {
		if l.nullInst[p], err = instrument.Apply(p.plain, l.null); err != nil {
			return nil, err
		}
		if l.dsInst[p], err = instrument.Apply(p.plain, l.dsOnly); err != nil {
			return nil, err
		}
		// One untimed run with the metrics shard gives the
		// deterministic counts the per-hook figures divide by.
		sh := obs.NewShard()
		res, err := core.RunInstrumented(p.inst, o.a, core.RunOptions{Seed: o.cfg.seed, Metrics: sh})
		if err != nil {
			return nil, err
		}
		l.steps[p] = float64(res.Steps - res.HookCalls)
		l.hooks[p] = float64(res.HookCalls)
		for k, v := range sh.Counts {
			if !strings.HasPrefix(k, "meta.") {
				continue
			}
			switch {
			case strings.HasSuffix(k, ".get"), strings.HasSuffix(k, ".set"), strings.HasSuffix(k, ".iter"):
				l.metaOps += float64(v)
			case strings.HasSuffix(k, ".cache_hit"):
				l.hits += float64(v)
			case strings.HasSuffix(k, ".cache_miss"):
				l.mis += float64(v)
			}
		}
	}
	return l, nil
}

// layers is the traced run. Each rep of a program runs, in a seeded
// order, the plain program, the null analysis, the ALDA analysis, the
// hand-tuned baseline and the ds-only build, each inside its own span,
// and the ALDA analysis once more untraced, so every ratio's two sides
// run interleaved rep by rep.
func (o *offline) layers(m metricSet) error {
	l, err := o.buildLegs()
	if err != nil {
		return err
	}
	// traceRatio holds, per program, each rep's traced ALDA run time
	// over the untraced one of the same rep.
	traceRatio := map[*program][]float64{}
	var rep int // span of the program's current rep, the legs' parent
	legRun := func(name string, p *program, run func() (*vm.Result, error)) *vm.Result {
		id := o.tr.begin(name, p.label, rep)
		res, err := run()
		o.tr.end(id)
		if err != nil {
			o.t.fail(name+" on "+p.label, err)
			return nil
		}
		return res
	}
	o.measure(o.cfg.seconds, func(p *program, seed int64) {
		opt := core.RunOptions{Seed: seed}
		var traced, untraced time.Duration
		runs := []func(){
			func() {
				legRun("core.RunPlain", p, func() (*vm.Result, error) { return core.RunPlain(p.plain, opt) })
			},
			func() {
				legRun("core.RunInstrumented/null", p, func() (*vm.Result, error) { return core.RunInstrumented(l.nullInst[p], l.null, opt) })
			},
			func() {
				start := time.Now()
				res := legRun("core.RunInstrumented", p, func() (*vm.Result, error) { return core.RunInstrumented(p.inst, o.a, opt) })
				traced = time.Since(start)
				if res != nil {
					o.t.check(o.spec.analysis+" (traced) on "+p.label, reportVerdict(res.Reports), o.expect[p.label])
				}
			},
			func() {
				// The same run with tracing off: the probe effect of a
				// span is the traced run's time over this one's.
				start := time.Now()
				_, err := core.RunInstrumented(p.inst, o.a, opt)
				untraced = time.Since(start)
				if err != nil {
					o.t.fail(o.spec.analysis+" (untraced) on "+p.label, err)
				}
			},
			func() {
				res := legRun("core.RunBaseline", p, func() (*vm.Result, error) { return core.RunBaseline(p.plain, o.spec.hand, opt) })
				if res != nil {
					l.handHooks[p] = float64(res.HookCalls)
					o.t.check("hand-tuned "+o.spec.analysis+" on "+p.label, reportVerdict(res.Reports), o.expect[p.label])
				}
			},
			func() {
				legRun("core.RunInstrumented/dsonly", p, func() (*vm.Result, error) { return core.RunInstrumented(l.dsInst[p], l.dsOnly, opt) })
			},
		}
		// A seeded order per program keeps cache warmth from favouring
		// whichever leg always runs second.
		rep = o.tr.begin("rep", p.label, 0)
		for _, i := range o.rng.Perm(len(runs)) {
			runs[i]()
		}
		o.tr.end(rep)
		traceRatio[p] = append(traceRatio[p], float64(traced)/float64(untraced))
	})

	sc := o.clk.runScale()
	med := func(name string, p *program) float64 {
		var xs []float64
		for _, s := range o.tr.spansOf(name, p.label) {
			xs = append(xs, float64(s.dur()))
		}
		return median(xs) * sc
	}
	var plainNS, nullNS, aldaNS, handNS, steps, hooks, handHooks float64
	var overhead, overHand, nullOverBase, dsOverFull, traceOver []float64
	for _, p := range o.progs {
		pl, nu, al, ha, ds := med("core.RunPlain", p), med("core.RunInstrumented/null", p),
			med("core.RunInstrumented", p), med("core.RunBaseline", p), med("core.RunInstrumented/dsonly", p)
		plainNS += pl
		nullNS += nu
		aldaNS += al
		handNS += ha
		steps += l.steps[p]
		hooks += l.hooks[p]
		handHooks += l.handHooks[p]
		overhead = append(overhead, al/pl)
		overHand = append(overHand, al/ha)
		nullOverBase = append(nullOverBase, nu/pl)
		dsOverFull = append(dsOverFull, ds/al)
		traceOver = append(traceOver, median(traceRatio[p]))
	}
	msOf := func(name string) float64 { return median(o.tr.durations(name)) * sc / 1e6 }
	m.set("workloads.build_ms", msOf("workloads.Build"))
	m.set("compiler.compile_ms", msOf("compiler.Compile"))
	m.set("instrument.apply_ms", msOf("instrument.Apply"))
	m.set("vm.base_ns_per_step", plainNS/steps)
	m.set("vm.dispatch_ns_per_hook", (nullNS-plainNS)/hooks)
	m.set("compiler.handler_ns_per_hook", (aldaNS-nullNS)/hooks)
	m.set("baselines.hand_ns_per_hook", (handNS-plainNS)/handHooks)
	m.set("meta.ops_per_hook", l.metaOps/hooks)
	if l.hits+l.mis > 0 {
		m.set("meta.cache_hit_ratio", l.hits/(l.hits+l.mis))
	}
	m.set("paper.overhead_x", geomean(overhead))
	m.set("paper.alda_over_hand_x", geomean(overHand))
	m.set("paper.null_over_base_x", geomean(nullOverBase))
	m.set("paper.dsonly_over_full_x", geomean(dsOverFull))
	m.set("obs.trace_overhead_x", geomean(traceOver))
	m.set("ref.kernel_ms", o.clk.medianNS()/1e6)
	return nil
}
