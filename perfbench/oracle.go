package main

import (
	"bufio"
	"embed"
	"fmt"
	"sort"
	"strings"

	"repro/internal/vm"
)

// The expected-verdict files are written by hand, one per offline
// workload, and are never produced by the compiler under test. A
// verdict is the set of distinct finding sites, "message @ fn/bN": the
// projection of a report that does not depend on the VM scheduler
// seed (occurrence counts on racy sites do).
//
//go:embed expect/*.txt
var expectFS embed.FS

// verdict is a sorted, duplicate-free list of findings.
type verdict []string

func (v verdict) String() string {
	if len(v) == 0 {
		return "clean"
	}
	return strings.Join(v, "; ")
}

func (v verdict) equal(w verdict) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

func newVerdict(findings []string) verdict {
	seen := map[string]bool{}
	var out verdict
	for _, f := range findings {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// reportVerdict projects VM reports to a verdict.
func reportVerdict(reports []*vm.Report) verdict {
	fs := make([]string, len(reports))
	for i, r := range reports {
		fs[i] = fmt.Sprintf("%s @ %s/b%d", r.Message, r.Fn, r.Block)
	}
	return newVerdict(fs)
}

// loadExpect reads a workload's expected-verdict file. Each line is
// "<program> clean" or "<program> <message> @ <fn>/b<N>", one finding
// a line; '#' starts a comment.
func loadExpect(workload string) (map[string]verdict, error) {
	f, err := expectFS.Open("expect/" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw := map[string][]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		prog, finding, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("expect/%s.txt:%d: want \"<program> <finding>\"", workload, n)
		}
		finding = strings.TrimSpace(finding)
		if _, dup := raw[prog]; !dup {
			raw[prog] = nil
		}
		if finding != "clean" {
			raw[prog] = append(raw[prog], finding)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]verdict{}
	for p, fs := range raw {
		out[p] = newVerdict(fs)
	}
	return out, nil
}
