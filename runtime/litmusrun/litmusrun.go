// Package litmusrun executes generated litmus programs as real
// goroutines over sync/atomic, with the program's fence points mapped
// onto the asymruntime fence pair — the silicon half of the
// cross-domain conformance harness (ROBUSTNESS.md §8).
//
// Run builds a crew once and keeps it for all its iterations: one worker
// goroutine per simulated core, one memory image whose shared-region
// words are atomic.Uint32 cells, and one register file per thread. For
// each iteration the caller resets the image to the litmus initial
// image and the registers to zero, releases every worker by a send on
// the worker's own channel, and waits for each to report on a shared
// done channel. Run returns only after every worker has exited. wfence
// becomes asymruntime.LightFence and sfence asymruntime.HeavyFence, so
// the generated Dekker-style handshakes exercise the exact light/heavy
// pairing the runtime ships. Thread-local instructions run through
// tso.Local, which computes them with internal/isa's Instr.Eval and
// Instr.Taken, the evaluator the cycle simulator's cores use too.
//
// After each iteration the caller appends the final state raw to a
// reused buffer (observed registers, shared words, extra cells). Only a
// raw state new to the Run is extracted as a litmus.Outcome and
// formatted as its canonical key, so a key is formatted once per
// distinct final state, not once per iteration.
//
// Go's sync/atomic loads, stores and swaps are sequentially
// consistent, so every outcome a run observes must be a sequentially
// consistent interleaving — a refinement of the TSO-strong closure the
// enumerator computes (tso.Strong treats every fence as a drain). A
// final state outside that closure is a conformance violation: either
// the runtime's fence pairing or the simulator's oracle is wrong.
//
// Schedule diversity comes from seeded, deterministic-decision yields:
// a randomized goroutine yield before about one memory operation in
// four. The decisions are a pure function of (seed, iteration, thread,
// draw counter); what the Go scheduler does with the yields is of
// course nondeterministic — that is the point. Iterations run in index
// order at whatever GOMAXPROCS the caller runs under; Run touches no
// process-wide scheduler state.
package litmusrun

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"asymfence/internal/faults"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/tso"
	"asymfence/internal/workloads/litmus"
	asymruntime "asymfence/runtime"
)

// Config parameterizes Run. The zero value is usable.
type Config struct {
	// Iterations is how many times the program group is executed
	// (default 256). Each iteration contributes one outcome.
	Iterations int
	// Seed drives the threads' yield streams (default 1): iteration it
	// runs under Seed + it·0x100000001b3.
	Seed uint64
	// MaxSteps bounds one thread's executed instructions per iteration
	// (default 1_000_000); past it the run fails with ErrRunaway.
	MaxSteps int
}

// Result is the observation summary of one Run.
type Result struct {
	// Outcomes is the set of distinct final states observed.
	Outcomes litmus.OutcomeSet
	// Iterations is the number of executions performed.
	Iterations int
}

// ErrRunaway reports a thread that exceeded Config.MaxSteps — only
// possible with backward branches, which the generator never emits.
var ErrRunaway = errors.New("litmusrun: runaway execution (backward branch loop?)")

// image is the memory a Run's iterations share, reset before each: the
// shared region as word-indexed atomic cells plus a lazy map for any
// access outside it (minimized or hand-built programs may compute such
// addresses; generated ones do not). The addressing discipline matches
// the simulator's functional store and the TSO machine: cells are keyed
// by exact address, and a never-written cell reads zero.
type image struct {
	base  mem.Addr
	words []atomic.Uint32
	extra sync.Map // mem.Addr -> *atomic.Uint32
}

func newImage(shared mem.Region) *image {
	img := &image{base: shared.Base, words: make([]atomic.Uint32, shared.Size/mem.WordSize)}
	img.reset()
	return img
}

// reset puts the image back to the litmus initial image: every region
// word to litmus.InitWord, and no extra cells. sync.Map.Clear would
// need Go 1.23.
func (img *image) reset() {
	for i := range img.words {
		img.words[i].Store(litmus.InitWord(i))
	}
	img.extra.Range(func(k, _ any) bool {
		img.extra.Delete(k)
		return true
	})
}

// cell returns the atomic cell backing addr: a region word when addr is
// a word-aligned region address, a (lazily created) extra cell
// otherwise.
func (img *image) cell(a mem.Addr) *atomic.Uint32 {
	off := a - img.base
	if a >= img.base && off%mem.WordSize == 0 {
		if i := int(off / mem.WordSize); i < len(img.words) {
			return &img.words[i]
		}
	}
	p, _ := img.extra.LoadOrStore(a, new(atomic.Uint32))
	return p.(*atomic.Uint32)
}

// load reads addr without materializing a cell for untouched addresses.
func (img *image) load(a mem.Addr) uint32 {
	off := a - img.base
	if a >= img.base && off%mem.WordSize == 0 {
		if i := int(off / mem.WordSize); i < len(img.words) {
			return img.words[i].Load()
		}
	}
	if p, ok := img.extra.Load(a); ok {
		return p.(*atomic.Uint32).Load()
	}
	return 0
}

// jitter is one thread's seeded yield stream.
type jitter struct {
	seed uint64
	ctr  uint64
}

// maybeYield draws one decision; roughly 1 in 4 memory operations gets
// a scheduler yield in front of it, which is what actually shuffles
// interleavings on a small machine.
func (j *jitter) maybeYield() {
	j.ctr++
	if faults.SplitMix64(j.seed^j.ctr)%4 == 0 {
		runtime.Gosched()
	}
}

// Run executes the program group Iterations times, in iteration order,
// and returns the set of observed final states. Every worker goroutine
// Run starts has exited when it returns, on error too.
func Run(progs []*isa.Program, shared mem.Region, cfg Config) (Result, error) {
	if len(progs) == 0 {
		return Result{}, errors.New("litmusrun: no programs")
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1_000_000
	}
	c := newCrew(progs, shared, cfg.MaxSteps)
	defer c.stop()
	res := Result{Outcomes: litmus.NewOutcomeSet()}
	for it := 0; it < cfg.Iterations; it++ {
		if err := c.run(cfg.Seed + uint64(it)*0x100000001b3); err != nil {
			return res, err
		}
		c.record(res.Outcomes)
		res.Iterations++
	}
	return res, nil
}

// crew runs a program group on one worker goroutine per thread, kept
// for a whole Run, over one reused image and register files. Between
// iterations the caller owns all of it; from the send on start[t] that
// releases worker t to that worker's send on done, the worker owns
// regs[t] and errs[t] and shares img with the other workers.
type crew struct {
	progs    []*isa.Program
	shared   mem.Region
	maxSteps int
	img      *image
	regs     []tso.Regs
	errs     []error
	start    []chan uint64 // one per worker: the iteration's seed; closed by stop
	done     chan struct{} // one send per worker per iteration
	exited   sync.WaitGroup

	raw   []byte              // the last recorded final state, raw
	extra []litmus.ExtraWord  // the last recorded extra cells, address-sorted
	seen  map[string]struct{} // every raw final state recorded so far
}

// newCrew starts one worker per program; stop ends them.
func newCrew(progs []*isa.Program, shared mem.Region, maxSteps int) *crew {
	c := &crew{
		progs:    progs,
		shared:   shared,
		maxSteps: maxSteps,
		img:      newImage(shared),
		regs:     make([]tso.Regs, len(progs)),
		errs:     make([]error, len(progs)),
		start:    make([]chan uint64, len(progs)),
		done:     make(chan struct{}, len(progs)),
		seen:     make(map[string]struct{}),
	}
	c.exited.Add(len(progs))
	for t := range progs {
		// One slot, so a release never waits for a worker still on
		// its way back from reporting the previous iteration.
		c.start[t] = make(chan uint64, 1)
		go c.work(t)
	}
	return c
}

// work is thread t's worker: it runs the thread once per seed it
// receives and reports each run on done, until stop closes its channel.
func (c *crew) work(t int) {
	defer c.exited.Done()
	for seed := range c.start[t] {
		jit := jitter{seed: faults.SplitMix64(seed ^ uint64(t))}
		c.errs[t] = exec(c.progs[t], t, &c.regs[t], c.img, &jit, c.maxSteps)
		c.done <- struct{}{}
	}
}

// run executes one iteration under seed: it resets the image and the
// register files, releases every worker and waits for all of them.
func (c *crew) run(seed uint64) error {
	c.img.reset()
	clear(c.regs)
	for _, ch := range c.start {
		ch <- seed
	}
	for range c.start {
		<-c.done
	}
	for t, err := range c.errs {
		if err != nil {
			return fmt.Errorf("thread %d: %w", t, err)
		}
	}
	return nil
}

// stop ends every worker and returns once all of them have exited.
func (c *crew) stop() {
	for _, ch := range c.start {
		close(ch)
	}
	c.exited.Wait()
}

// record adds the crew's final state to out. It appends the state raw
// to c.raw: every thread's litmus.ObservedRegs, every region word, then
// every extra cell's address and value in address order. Equal raw
// states have equal outcomes, so only a raw state the crew has not
// recorded before is extracted and formatted as its canonical key.
func (c *crew) record(out litmus.OutcomeSet) {
	b := c.raw[:0]
	for t := range c.regs {
		for _, r := range litmus.ObservedRegs {
			b = binary.LittleEndian.AppendUint32(b, c.regs[t].Get(r))
		}
	}
	for i := range c.img.words {
		b = binary.LittleEndian.AppendUint32(b, c.img.words[i].Load())
	}
	c.extra = c.extra[:0]
	c.img.extra.Range(func(k, v any) bool {
		c.extra = append(c.extra, litmus.ExtraWord{Addr: k.(mem.Addr), Val: v.(*atomic.Uint32).Load()})
		return true
	})
	slices.SortFunc(c.extra, func(x, y litmus.ExtraWord) int { return cmp.Compare(x.Addr, y.Addr) })
	for _, e := range c.extra {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Addr))
		b = binary.LittleEndian.AppendUint32(b, e.Val)
	}
	c.raw = b
	if _, ok := c.seen[string(b)]; ok {
		return
	}
	c.seen[string(b)] = struct{}{}
	out.Add(litmus.ExtractOutcome(len(c.regs), c.shared,
		func(t int, r isa.Reg) uint32 { return c.regs[t].Get(r) },
		c.img.load,
		func(f func(a mem.Addr, v uint32)) {
			for _, e := range c.extra {
				f(e.Addr, e.Val)
			}
		}))
}

// exec interprets one thread body. Local instructions go through
// tso.Local; memory operations become sync/atomic accesses; fence
// points become the asymruntime pair.
func exec(p *isa.Program, t int, regs *tso.Regs, img *image, jit *jitter, maxSteps int) error {
	pc := 0
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return ErrRunaway
		}
		if pc < 0 || pc >= len(p.Instrs) {
			return nil
		}
		in := p.Instrs[pc]
		if next, ok := tso.Local(in, pc, regs); ok {
			pc = next
			continue
		}
		jit.maybeYield()
		switch in.Op {
		case isa.Halt:
			return nil
		case isa.Ld:
			a := mem.Addr(regs.Get(in.Src1) + uint32(in.Imm))
			regs.Set(in.Dst, img.load(a))
		case isa.St:
			a := mem.Addr(regs.Get(in.Src1) + uint32(in.Imm))
			img.cell(a).Store(regs.Get(in.Src2))
		case isa.Xchg:
			a := mem.Addr(regs.Get(in.Src1) + uint32(in.Imm))
			regs.Set(in.Dst, img.cell(a).Swap(regs.Get(in.Src2)))
		case isa.WFence:
			asymruntime.LightFence()
		case isa.SFence:
			asymruntime.HeavyFence()
		default:
			return fmt.Errorf("unexpected op %v at pc %d", in.Op, pc)
		}
		pc++
	}
}
