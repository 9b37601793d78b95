package main

import (
	"testing"

	"repro/internal/core"
)

// The hand-written expected verdicts agree with the hand-tuned
// baselines, which share no code with the ALDA compiler, on several
// scheduler seeds.
func TestExpectedVerdictsMatchHandBaselines(t *testing.T) {
	for name, spec := range offlineSpecs {
		t.Run(name, func(t *testing.T) {
			o, err := newOffline(spec, config{seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.setup(); err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 77} {
				for _, p := range o.progs {
					res, err := core.RunBaseline(p.plain, spec.hand, core.RunOptions{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if got := reportVerdict(res.Reports); !got.equal(o.expect[p.label]) {
						t.Errorf("seed %d, %s: hand-tuned %s got %s, expect file says %s", seed, p.label, spec.analysis, got, o.expect[p.label])
					}
				}
			}
		})
	}
}

// A deliberately wrong expectation must show up in ok_rate: the oracle
// is what the benchmark's correctness claim rests on.
func TestWrongExpectationLowersOKRate(t *testing.T) {
	t.Run("msan-spec", func(t *testing.T) {
		o, err := newOffline(offlineSpecs["msan-spec"], config{seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.setup(); err != nil {
			t.Fatal(err)
		}
		o.expect["gcc/uninit"] = nil // claims the planted bug goes unreported
		for _, p := range o.progs {
			o.runALDA(p, 1)
		}
		if o.t.failed != 1 || o.t.okRate() >= 1 {
			t.Errorf("failed %d of %d, ok_rate %v; want exactly the planted-bug run to fail", o.t.failed, o.t.attempted, o.t.okRate())
		}
	})
	t.Run("serve-jobs", func(t *testing.T) {
		b := &serveBench{tr: newTracer(false), t: &tally{}, jobs: generateJobs(1, serveExecJobs)}
		b.jobs[3].Expect = verdict{"use after free (write) @ nowhere"}
		if err := b.executeDirect(); err != nil {
			t.Fatal(err)
		}
		if b.t.failed != 1 || b.t.okRate() >= 1 {
			t.Errorf("failed %d of %d, ok_rate %v; want exactly the altered job to fail", b.t.failed, b.t.attempted, b.t.okRate())
		}
	})
}
