package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestGenerateJobsIsSeeded(t *testing.T) {
	enc := func(seed int64) []byte {
		b, err := json.Marshal(generateJobs(seed, 256))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(5), enc(5)) {
		t.Error("the same seed gave different job lists")
	}
	if bytes.Equal(enc(5), enc(6)) {
		t.Error("different seeds gave the same job list")
	}
}

// The verdicts the generator derives agree with what the server's
// execution path reports, for every analysis and bug placement.
func TestGeneratedJobsGetTheirVerdicts(t *testing.T) {
	b := &serveBench{tr: newTracer(false), t: &tally{}, jobs: generateJobs(9, serveExecJobs)}
	bugs, clean := 0, 0
	for _, j := range b.jobs {
		if len(j.Expect) > 0 {
			bugs++
		} else {
			clean++
		}
	}
	if bugs == 0 || clean == 0 {
		t.Fatalf("want both buggy and clean verdicts, got %d and %d", bugs, clean)
	}
	if err := b.executeDirect(); err != nil {
		t.Fatal(err)
	}
	if b.t.failed != 0 || b.t.attempted != serveExecJobs {
		t.Errorf("%d of %d jobs got the wrong verdict", b.t.failed, b.t.attempted)
	}
}
