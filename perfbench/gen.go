package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/mir"
	"repro/internal/serve"
)

// genJob is one generated serve-jobs request and the verdict it must
// get. The verdict follows from how the generator built the program,
// never from running it: a job carries a planted use-after-free or it
// does not, and only an analysis set that includes uaf reports one.
type genJob struct {
	Req    serve.JobRequest `json:"req"`
	Expect verdict          `json:"expect"`
}

// jobAnalyses are the analyses serve-jobs requests; "uaf+msan" is the
// fused combination.
var jobAnalyses = []string{"uaf", "msan", "uaf+msan"}

// Planted bugs: where the freed buffer is touched after free.
const (
	bugNone = iota
	bugWriteMain
	bugReadMain
	bugReadHelper
)

// generateJobs returns n seeded jobs. The programs vary in size (a few
// hundred to a few thousand VM steps), in shape (the sum inline or in
// a helper, an extra calloc'd buffer), in analysis, tenant, scheduler
// seed and in whether and where a use-after-free is planted.
//
// Sizes, shapes, analyses and bugs are stratified: every seed gets the
// same multiset of them, dealt to the jobs in a seeded order, so the
// mean cost of a job, and with it jobs_per_s, does not depend on the
// seed. Tenants, seeds, fill values and bug sites are drawn freely.
func generateJobs(seed int64, n int) []genJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]genJob, n)
	for i, k := range rng.Perm(n) {
		words := 16 + int64(k)*240/int64(n)
		helper := (k/5)%2 == 0
		extra := (k/7)%3 == 0
		analysis := jobAnalyses[k%len(jobAnalyses)]
		bug := bugNone
		if k%4 == 0 { // a quarter of the jobs carry a planted bug
			bug = bugWriteMain + (k/12)%3 // independent of the analysis, k%3
		}
		jobs[i] = genJob{
			Req: serve.JobRequest{
				Tenant:   fmt.Sprintf("tenant-%d", rng.Intn(4)),
				MIR:      jobProgram(words, rng.Int63n(1000), helper, extra, bug, rng.Int63n(words)).String(),
				Analysis: analysis,
				Options:  serve.JobOptions{Seed: 1 + rng.Int63n(1<<20)},
			},
			Expect: jobVerdict(analysis, bug),
		}
	}
	return jobs
}

// jobVerdict is the verdict a job must get: a planted bug is reported
// by uaf at the function that touches the freed buffer, and MSan stays
// silent because the freed bytes never reach a branch.
func jobVerdict(analysis string, bug int) verdict {
	if bug == bugNone || analysis == "msan" {
		return nil
	}
	switch bug {
	case bugWriteMain:
		return verdict{"use after free (write) @ main"}
	case bugReadMain:
		return verdict{"use after free (read) @ main"}
	default:
		return verdict{"use after free (read) @ sum"}
	}
}

// jobProgram builds one job's program: fill a malloc'd buffer of words
// words, sum it, free it, and return the sum. A planted bug then
// touches word at of the freed buffer, directly or through sum.
func jobProgram(words, mult int64, helper, extra bool, bug int, at int64) *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(words*8))
	b.Loop(mir.C(words), func(i mir.Reg) {
		off := b.Mul(mir.R(i), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		v := b.Mul(mir.R(i), mir.C(mult+1))
		b.Store(mir.R(addr), mir.R(v), 8)
	})
	if extra {
		aux := b.Call("calloc", mir.C(words), mir.C(8))
		b.Loop(mir.C(words), func(i mir.Reg) {
			off := b.Mul(mir.R(i), mir.C(8))
			addr := b.Add(mir.R(aux), mir.R(off))
			v := b.Load(mir.R(addr), 8)
			w := b.Add(mir.R(v), mir.R(i))
			b.Store(mir.R(addr), mir.R(w), 8)
		})
		b.CallVoid("free", mir.R(aux))
	}
	var total mir.Reg
	if helper {
		total = b.Call("sum", mir.R(buf), mir.C(words))
	} else {
		total = sumWords(b, buf, mir.C(words))
	}
	b.CallVoid("free", mir.R(buf))
	if helper || bug == bugReadHelper {
		defineSum(p)
	}
	var site mir.Reg
	if bug != bugNone {
		site = b.Add(mir.R(buf), mir.C(at*8))
	}
	switch bug {
	case bugWriteMain:
		b.Store(mir.R(site), mir.C(1), 8)
	case bugReadMain:
		v := b.Load(mir.R(site), 8)
		total = b.Add(mir.R(total), mir.R(v))
	case bugReadHelper:
		v := b.Call("sum", mir.R(site), mir.C(1))
		total = b.Add(mir.R(total), mir.R(v))
	}
	b.RetVal(mir.R(total))
	return p
}

// defineSum adds sum(buf, n), which returns the sum of n words at buf.
func defineSum(p *mir.Program) {
	b := p.NewFunc("sum", 2)
	b.RetVal(mir.R(sumWords(b, b.Param(0), mir.R(b.Param(1)))))
}

// sumWords emits a loop summing n words at buf through a stack slot and
// returns the register holding the result.
func sumWords(b *mir.FuncBuilder, buf mir.Reg, n mir.Operand) mir.Reg {
	acc := b.Alloca(8)
	b.Store(mir.R(acc), mir.C(0), 8)
	b.Loop(n, func(i mir.Reg) {
		off := b.Mul(mir.R(i), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		v := b.Load(mir.R(addr), 8)
		s := b.Load(mir.R(acc), 8)
		b.Store(mir.R(acc), mir.R(b.Add(mir.R(s), mir.R(v))), 8)
	})
	return b.Load(mir.R(acc), 8)
}

// jobVerdictOf projects a served job's canonical report lines
// ("analysis|message|got|expected|fn|bN|xC") to "message @ fn".
func jobVerdictOf(reports []string) (verdict, error) {
	fs := make([]string, 0, len(reports))
	for _, r := range reports {
		parts := strings.Split(r, "|")
		if len(parts) != 7 {
			return nil, fmt.Errorf("malformed report %q", r)
		}
		fs = append(fs, parts[1]+" @ "+parts[4])
	}
	return newVerdict(fs), nil
}
