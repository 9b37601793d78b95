package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkJSONFromTest is BENCHMARK.json seen from the package
// directory, where go test runs.
const benchmarkJSONFromTest = "../BENCHMARK.json"

// minRawDrop is the raw slowdown that shows the competitors contended.
const minRawDrop = 0.15

// Reference normalization cancels host contention: msan-spec runs for
// half the time alone and for half beside one busy-loop competitor per
// core. The raw throughput must drop by at least minRawDrop while the
// normalized analyzed_msteps_per_s moves by no more than its bound in
// BENCHMARK.json.
func TestContentionSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs msan-spec for 20 s")
	}
	decl, err := readDeclared(benchmarkJSONFromTest)
	if err != nil {
		t.Fatal(err)
	}
	bound := -1.0
	for _, m := range decl.EndToEnd {
		if m.Name == "analyzed_msteps_per_s" {
			bound = m.Bound
		}
	}
	if bound < 0 {
		t.Fatalf("%s declares no analyzed_msteps_per_s", benchmarkJSONFromTest)
	}
	half := config{seed: 3, seconds: 10 * time.Second}
	alone, err := contendedRun(half, 0)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := contendedRun(half, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	rawDrop := 1 - busy.raw/alone.raw
	shift := busy.norm/alone.norm - 1
	t.Logf("msan-spec alone:                raw %7.3f Msteps/s, normalized %7.3f Msteps/s", alone.raw, alone.norm)
	t.Logf("msan-spec beside %d busy loops:  raw %7.3f Msteps/s (%+.1f%%), normalized %7.3f Msteps/s (%+.1f%%, bound ±%.0f%%)",
		runtime.NumCPU(), busy.raw, -100*rawDrop, busy.norm, 100*shift, 100*bound)
	if rawDrop < minRawDrop {
		t.Fatalf("raw throughput dropped %.1f%%, less than %.0f%%: the competitors did not contend", 100*rawDrop, 100*minRawDrop)
	}
	if shift > bound || shift < -bound {
		t.Fatalf("normalized throughput moved %+.1f%%, beyond its bound of %.0f%%", 100*shift, 100*bound)
	}
}

type throughputs struct{ raw, norm float64 }

// contendedRun measures msan-spec throughput with hogs busy-loop
// goroutines running. Each hog holds its own OS thread and GOMAXPROCS
// grows by one per hog, so the operating system, not the Go scheduler,
// shares the cores between the benchmark and the hogs, as it would
// with another tenant's processes.
func contendedRun(cfg config, hogs int) (throughputs, error) {
	o, err := newOffline(offlineSpecs["msan-spec"], cfg)
	if err != nil {
		return throughputs{}, err
	}
	if _, err := o.setup(); err != nil {
		return throughputs{}, err
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	if hogs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + hogs))
		for i := 0; i < hogs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				x := uint64(1)
				for !stop.Load() {
					for j := 0; j < 1<<16; j++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
				}
				hogSink.Add(x)
			}()
		}
	}
	for _, p := range o.progs {
		o.runALDA(p, o.rng.Int63())
	}
	reps := o.measure(cfg.seconds, nil)
	stop.Store(true)
	wg.Wait()
	if o.t.failed > 0 {
		return throughputs{}, fmt.Errorf("%d of %d verdicts wrong", o.t.failed, o.t.attempted)
	}
	return throughputs{raw: o.throughput(reps, false), norm: o.throughput(reps, true)}, nil
}

// hogSink keeps the hogs' arithmetic from being optimized away.
var hogSink atomic.Uint64
