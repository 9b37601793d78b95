// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed time, checks every verdict the program under
// test produces, and prints one JSON object as its last line of
// output. Run it from the checkout root through run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload msan-spec --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it records spans around every call into a
// layer, writes them to .bench_build/spans/ and prints the per-layer
// metrics derived from them. The metrics and their units are those
// BENCHMARK.json declares. README.md lists the workloads, the metrics
// and which end-to-end metric each per-layer metric explains.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// metrics are the metrics to print, as BENCHMARK.json declares
	// them: the end-to-end ones, or with trace the per-layer ones.
	metrics []declaredMetric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// tally counts verdict checks. Every mismatch is described on standard
// error so a failed run explains itself.
type tally struct {
	attempted, failed int
}

func (t *tally) check(what string, got, want verdict) bool {
	t.attempted++
	if got.equal(want) {
		return true
	}
	t.failed++
	fmt.Fprintf(os.Stderr, "verdict mismatch: %s: got %s, want %s\n", what, got, want)
	return false
}

// fail counts an attempt that produced no verdict at all.
func (t *tally) fail(what string, err error) {
	t.attempted++
	t.failed++
	fmt.Fprintf(os.Stderr, "failed: %s: %v\n", what, err)
}

func (t *tally) okRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// workloadFn runs one workload and returns its metrics together with
// the tracer that recorded its spans.
type workloadFn func(cfg config) (metricSet, *tally, *tracer, error)

var workloadFns = map[string]workloadFn{
	"msan-spec": func(cfg config) (metricSet, *tally, *tracer, error) {
		return runOffline(offlineSpecs["msan-spec"], cfg)
	},
	"eraser-splash": func(cfg config) (metricSet, *tally, *tracer, error) {
		return runOffline(offlineSpecs["eraser-splash"], cfg)
	},
	"serve-jobs": runServeJobs,
}

// buildDir is where the benchmark keeps what it writes, relative to
// the checkout it runs in.
const buildDir = ".bench_build"

// benchmarkJSON declares the metrics, relative to the checkout root.
const benchmarkJSON = "BENCHMARK.json"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: msan-spec, eraser-splash or serve-jobs")
	seed := flag.Int64("seed", 1, "seed for the generated inputs, the rep order and the VM scheduler")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "--trace takes 0 or 1 and --seconds a positive count")
		return 2
	}
	decl, err := readDeclared(benchmarkJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, metrics: decl.EndToEnd}
	if cfg.trace {
		cfg.metrics = decl.PerLayer
	}
	fn, ok := workloadFns[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	metrics, t, tr, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	out, err := json.Marshal(result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
