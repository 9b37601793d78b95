package main

import (
	"encoding/json"
	"strings"
	"sync"
	"time"
)

// The reference kernel is a fixed pure-Go workload that runs
// interleaved with the measured work, in the same process. Every
// wall-clock figure is multiplied by refNominal ÷ (the kernel's time
// measured next to it), which rescales it to a nominal machine on
// which one kernel pass takes exactly refNominal. A host that another
// tenant slows, or that runs at a lower clock, slows both sides alike,
// so the rescaled figure stays put while a change to the program moves
// only the measured side.
//
// Each kind of workload has a kernel shaped like its own work, so that
// interference slows the two alike. The offline workloads' kernel is a
// miniature of what the VM does per step: a switch-dispatched register
// machine running a fixed pseudo-random program, with loads and stores
// into a chunked 256 KiB heap and hook instructions that call closures
// which read and write a Go map standing in for analysis metadata.
// serve-jobs' kernel (serveRef) is shaped like a served job instead.
const (
	refNominal = 3500 * time.Microsecond
	refIters   = 1 << 14 // passes over the kernel program per tick
	refCodeLen = 48
	refChunks  = 64  // heap chunks
	refChunk   = 512 // words per chunk
	refMetaLen = 4096
)

type refIns struct {
	op        uint8
	dst, a, b uint8
	imm       uint64
}

const (
	refConst = iota
	refAdd
	refMul
	refXor
	refShr
	refLoad
	refStore
	refHook
	refSkip
	refNumOps
)

type refKernel struct {
	code  []refIns
	regs  [16]uint64
	heap  [][]uint64
	meta  map[uint64]uint8
	hooks []func(k *refKernel, addr uint64)
}

func newRefKernel() *refKernel {
	k := &refKernel{meta: make(map[uint64]uint8, 2*refMetaLen)}
	for i := 0; i < refChunks; i++ {
		k.heap = append(k.heap, make([]uint64, refChunk))
	}
	// Every key exists up front, so the map never grows and a pass does
	// the same work every time.
	for i := uint64(0); i < refMetaLen; i++ {
		k.meta[i] = 0
	}
	k.hooks = []func(*refKernel, uint64){
		func(k *refKernel, a uint64) { k.meta[(a>>3)%refMetaLen] = uint8(a) },
		func(k *refKernel, a uint64) { k.regs[15] += uint64(k.meta[(a>>3)%refMetaLen]) },
	}
	x := uint64(88172645463325252)
	for i := 0; i < refCodeLen; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.code = append(k.code, refIns{op: uint8(x % refNumOps), dst: uint8(x>>8) & 15, a: uint8(x>>12) & 15, b: uint8(x>>16) & 15, imm: x >> 20})
	}
	return k
}

// run performs one pass. The result is returned so the compiler
// cannot drop the loop.
func (k *refKernel) run() uint64 {
	for i := range k.regs {
		k.regs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	regs := &k.regs
	for it := 0; it < refIters; it++ {
		for pc := 0; pc < len(k.code); pc++ {
			in := &k.code[pc]
			switch in.op {
			case refConst:
				regs[in.dst] = in.imm
			case refAdd:
				regs[in.dst] = regs[in.a] + regs[in.b]
			case refMul:
				regs[in.dst] = regs[in.a] * (regs[in.b] | 1)
			case refXor:
				regs[in.dst] = regs[in.a] ^ regs[in.b]
			case refShr:
				regs[in.dst] = regs[in.a] >> (regs[in.b] & 31)
			case refLoad:
				a := regs[in.a]
				regs[in.dst] = k.heap[(a/refChunk)%refChunks][a%refChunk]
			case refStore:
				a := regs[in.a]
				k.heap[(a/refChunk)%refChunks][a%refChunk] = regs[in.b]
			case refHook:
				k.hooks[in.imm&1](k, regs[in.a])
			case refSkip:
				if regs[in.a]&1 == 1 {
					pc++
				}
			}
		}
	}
	return k.regs[15]
}

// refClock runs a reference kernel on demand and keeps every pass's
// time in order, so a measurement can be rescaled by the pass next to
// it.
type refClock struct {
	pass    func() uint64
	samples []time.Duration
	sink    uint64
}

func newRefClock(pass func() uint64) *refClock {
	return &refClock{pass: pass}
}

// tick runs one pass and returns its index.
func (c *refClock) tick() int {
	start := time.Now()
	c.sink += c.pass()
	c.samples = append(c.samples, time.Since(start))
	return len(c.samples) - 1
}

// scale returns the factor that rescales a time measured right after
// pass i to the nominal machine. Only that pass is used: a burst of
// interference that slows a run usually slows the pass next to it too,
// and the medians taken over many runs absorb the passes it misses.
func (c *refClock) scale(i int) float64 {
	return c.scaleOver(i, i+1)
}

// scaleOver returns the factor from the median of passes [lo, hi).
func (c *refClock) scaleOver(lo, hi int) float64 {
	lo, hi = max(lo, 0), min(hi, len(c.samples))
	win := make([]float64, 0, hi-lo)
	for _, d := range c.samples[lo:hi] {
		win = append(win, float64(d))
	}
	return float64(refNominal) / median(win)
}

// runScale is the factor for figures taken over the whole run.
func (c *refClock) runScale() float64 {
	return float64(refNominal) / c.medianNS()
}

// medianNS is the median raw pass time.
func (c *refClock) medianNS() float64 {
	all := make([]float64, len(c.samples))
	for i, d := range c.samples {
		all[i] = float64(d)
	}
	return median(all)
}

// medianSeconds runs fn n times, each right after a reference pass,
// and returns the median of fn's rescaled times in seconds.
func (c *refClock) medianSeconds(n int, fn func() (time.Duration, error)) (float64, error) {
	raw := make([]time.Duration, n)
	refs := make([]int, n)
	for i := range raw {
		refs[i] = c.tick()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		raw[i] = d
	}
	c.tick()
	secs := make([]float64, n)
	for i, d := range raw {
		secs[i] = d.Seconds() * c.scale(refs[i])
	}
	return median(secs), nil
}

// serveRef is serve-jobs' reference kernel, shaped like a served job:
// a client goroutine hands a JSON request to a worker goroutine over a
// channel, the worker decodes it, updates a map, encodes a reply and
// hands it back, and the client decodes the reply. It exercises what
// dominates serve-jobs (goroutine hand-offs across cores, JSON,
// allocation and collection) with fixed work and no I/O.
type serveRef struct {
	req []byte
}

// serveRefTrips is the number of round trips in one pass.
const serveRefTrips = 80

type serveRefMsg struct {
	Tenant  string   `json:"tenant"`
	Program string   `json:"program"`
	Seed    int64    `json:"seed"`
	Reports []string `json:"reports"`
}

func newServeRef() *serveRef {
	req, err := json.Marshal(serveRefMsg{
		Tenant:  "tenant-0",
		Program: strings.Repeat("  r1 = add r0, 1\n", 48),
		Seed:    1,
		Reports: []string{"uafOnStore|use after free (write)|1|0|main|b3|x1"},
	})
	if err != nil {
		panic(err) // a fixed, encodable value
	}
	return &serveRef{req: req}
}

func (r *serveRef) run() uint64 {
	reqs := make(chan []byte)
	resps := make(chan []byte)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := map[string]int64{}
		for b := range reqs {
			var m serveRefMsg
			if err := json.Unmarshal(b, &m); err != nil {
				panic(err) // the fixed request always decodes
			}
			seen[m.Tenant] += m.Seed
			m.Seed = seen[m.Tenant]
			out, err := json.Marshal(&m)
			if err != nil {
				panic(err)
			}
			resps <- out
		}
	}()
	var acc uint64
	for i := 0; i < serveRefTrips; i++ {
		reqs <- r.req
		var m serveRefMsg
		if err := json.Unmarshal(<-resps, &m); err != nil {
			panic(err)
		}
		acc += uint64(m.Seed)
	}
	close(reqs)
	wg.Wait()
	return acc
}
