package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
)

// The dispatch/handler split subtracts a null-analysis run from the
// real one, which is only sound if both retire exactly the same hook
// calls on every program of the workload.
func TestNullAnalysesMatchHookCounts(t *testing.T) {
	for name, spec := range offlineSpecs {
		t.Run(name, func(t *testing.T) {
			o, err := newOffline(spec, config{seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.setup(); err != nil {
				t.Fatal(err)
			}
			l, err := o.buildLegs()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.progs {
				inst, err := instrument.Apply(p.plain, l.null)
				if err != nil {
					t.Fatal(err)
				}
				null, err := core.RunInstrumented(inst, l.null, core.RunOptions{Seed: 1})
				if err != nil {
					t.Fatalf("null on %s: %v", p.label, err)
				}
				if null.HookCalls == 0 || float64(null.HookCalls) != l.hooks[p] {
					t.Errorf("%s: null analysis retired %d hook calls, %s retired %.0f", p.label, null.HookCalls, spec.analysis, l.hooks[p])
				}
				if len(null.Reports) != 0 {
					t.Errorf("%s: null analysis reported %d findings", p.label, len(null.Reports))
				}
			}
		})
	}
}
