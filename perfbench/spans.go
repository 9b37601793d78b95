package main

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one unit of work (a program's rep, a
// served job) share a trace identifier; Parent links a span to the
// span whose work caused it.
type span struct {
	Name   string
	Trace  string
	ID     int
	Parent int
	Start  time.Duration // since the tracer started
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory and writes them out when the run ends.
// A disabled tracer records nothing and costs one branch per call, so
// the untraced runs that give the end-to-end metrics pay no probe
// effect.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now()}
}

// begin opens a span and returns its handle; end closes it.
func (t *tracer) begin(name, trace string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the closed spans named name, in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write stores the spans as a Chrome trace at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := obs.CreateTrace(path)
	if err != nil {
		return err
	}
	// base is no earlier than the trace's own start, so no span's
	// timestamp is clamped to 0; every span shifts by the same few
	// microseconds.
	base := time.Now()
	t.mu.Lock()
	for _, s := range t.spans {
		out.Span("perfbench", s.Name, 1, base.Add(s.Start), s.dur(),
			"trace", s.Trace, "id", strconv.Itoa(s.ID), "parent", strconv.Itoa(s.Parent))
	}
	t.mu.Unlock()
	return out.Close()
}

// spansOf returns the closed spans named name in trace.
func (t *tracer) spansOf(name, trace string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Trace == trace && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}
