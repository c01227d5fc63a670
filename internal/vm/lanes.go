package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cucc/internal/interp"
	"cucc/internal/kir"
)

// Lane-batched execution.
//
// A Runner executes a block's threads in warp-style batches of W lanes in
// lockstep: one opcode dispatch drives a tight per-opcode loop over all
// active lanes, amortizing the dispatch cost that dominates a
// thread-at-a-time loop.  Registers live in structure-of-arrays slabs —
// slab[reg*W + lane] — so the per-lane loops walk contiguous memory.
//
// W is the launch's threads per block, capped at LaneWidth (256 unless a
// test sets it): a block up to the cap is one batch, so a batch-scalar
// instruction runs once per block — the block-to-loop transform's hoisting
// of thread-invariant work out of the thread loop — and a block smaller
// than the cap gets slabs no wider than itself.  Every cap below 256 was
// slower on the suite's 256-thread blocks (EXPERIMENTS.md, "One batch per
// block"; BenchmarkLaneWidth in internal/core re-measures it).  Batch
// contexts outlive their Runner: Release hands them to the kernel's free
// list, keyed by width, and the next Runner refills their rows with its own
// launch's image instead of allocating new slabs.
//
// Divergence is handled by an active-lane set plus a min-pc scheduler: the
// lanes at the smallest program counter always run first, so groups split
// by a conditional jump naturally reconverge at the compiler's jump-lowered
// merge points (an if/else joins where the forward jumps land; a loop's
// back edge brings its lanes behind the exited ones, which wait at the
// loop's end label).  Each lane individually executes exactly its thread's
// instruction sequence; the scheduler only chooses the interleaving, which
// for race-free kernels cannot change memory, Work, or errors.  A kernel
// with an intra-block data race (undefined in CUDA) may differ from the
// thread-serial interpreter; at lane width 1 the schedule is thread-serial
// too.
//
// Barrier kernels keep one batch context per batch so every lane's state
// survives across rounds: a batch runs until all its lanes are waiting at
// opSync (or done/dead), and when every batch has arrived the barrier
// releases all of them — the same block-wide cyclic barrier with early
// departure the interpreter implements.
//
// Error semantics match the interpreter: a dying lane (out-of-bounds,
// div-by-zero, loop budget, opErr) stops executing while the others
// continue, and the block reports the erroring lane with the smallest
// thread id, with zero Work — the thread-id-order first-error rule.
//
// Value classes.  Most of a kernel's inner loop does not depend on
// threadIdx: the loop counter, its bound, the row base of an index, a
// coefficient load.  The compiler (classify in compile.go) sorts every
// value into a per-lane row, a launch constant (uniform, whole row valid), or
// a batch scalar (uniform, only the row's lane-0 cell maintained — there is
// no second register file), and flags each instruction accordingly:
//
//   - uExec, every operand uniform: the instruction runs once, on the lane-0
//     cells, through the same per-opcode code with a one-lane active set,
//     and its Work is charged once per active lane.  A uniform conditional
//     jump so moves the whole active set, and a uniform-index load is one
//     checked load; if it fails, every active lane dies with that error.
//   - uA/uB/uC, a per-lane instruction with a uniform operand: the opcodes
//     the suite's inner loops are made of read that operand from its lane-0
//     cell, hoisted out of the lane loop.
//   - Every other consumer of a batch scalar is handed a row: the compiler
//     emits a broadcast move into a scratch temporary first.  That fallback
//     is always correct; the profiler counts it.
//
// tick (per-thread iteration budgets), stores, atomics, barriers and opErr
// always run per lane.
//
// The accumulate of the FIR, Conv2D and MatMul inner loops, `sum += s *
// x[idx + off]`, is one instruction, opLdFMA: the load, the multiply-add and
// the write-back in one pass over the row.

// laneWidth caps the batch width of new Runners.
var laneWidth atomic.Int32

func init() { laneWidth.Store(maxLaneWidth) }

// maxLaneWidth is the default cap and SetLaneWidth's bound: no suite
// program or benchmark launch has blocks wider than 256 threads, so a
// larger cap could not be measured.
const maxLaneWidth = 256

// SetLaneWidth sets the lane-width cap for Runners created from now on,
// clamped to [1, 256], and returns the previous cap.  It exists for tests
// that exercise partial tail batches and divergence at odd widths, and for
// BenchmarkLaneWidth, which re-measures the default.
func SetLaneWidth(w int) int {
	return int(laneWidth.Swap(int32(min(max(w, 1), maxLaneWidth))))
}

// LaneWidth reports the current lane-width cap.
func LaneWidth() int { return int(laneWidth.Load()) }

// batchFree is a kernel's free list of batch contexts, one sync.Pool per
// lane width (a context's slabs are its width times the kernel's register
// counts).  sync.Pool drops idle entries across GC cycles, so the contexts
// of a kernel that is not launched again go back to the collector.
type batchFree struct{ byWidth sync.Map } // int -> *sync.Pool of *laneBatch

func (f *batchFree) of(w int) *sync.Pool {
	if p, ok := f.byWidth.Load(w); ok {
		return p.(*sync.Pool)
	}
	p, _ := f.byWidth.LoadOrStore(w, new(sync.Pool))
	return p.(*sync.Pool)
}

// Lane status values.
const (
	stRun  uint8 = iota // runnable: in the active set or parked at pcs[lane]
	stWait              // suspended at a barrier
	stDone              // returned
	stDead              // errored; errs[lane] holds the error
)

// laneBatch is the execution state of one batch of up to W lanes.
type laneBatch struct {
	li []int64   // int register slab, [reg*W + lane]
	lf []float64 // float register slab

	pcs   []int32
	iters []int64
	stat  []uint8
	errs  []error

	base, cnt int // first thread id, lanes in use

	act []int  // active-set scratch (ascending lane order)
	tkn []bool // per-lane taken mask scratch for conditional jumps
	one []int  // {0}: the active set of a scalar-executed instruction
}

// newBatch allocates a batch context of the Runner's width.
func (r *Runner) newBatch() *laneBatch {
	p, W := r.p, r.w
	return &laneBatch{
		li:    make([]int64, p.numI*W),
		lf:    make([]float64, p.numF*W),
		pcs:   make([]int32, W),
		iters: make([]int64, W),
		stat:  make([]uint8, W),
		errs:  make([]error, W),
		act:   make([]int, 0, W),
		tkn:   make([]bool, W),
		one:   []int{0},
	}
}

// fillBatch replicates the launch-level register images across all lanes of
// a batch context, fresh or recycled.  Constants, scalar arguments, and the
// grid/block-dim builtins never change after this; resetBatch refreshes
// only the per-block and per-thread rows.
func (r *Runner) fillBatch(b *laneBatch) {
	W := r.w
	for reg, v := range r.baseI {
		row := b.li[reg*W : (reg+1)*W]
		for i := range row {
			row[i] = v
		}
	}
	for reg, v := range r.baseF {
		row := b.lf[reg*W : (reg+1)*W]
		for i := range row {
			row[i] = v
		}
	}
}

// resetBatch points a batch context at threads [base, base+cnt) of the
// current block: per-thread builtin rows, the variable-slot rows the kernel
// writes (only those can have been clobbered by the previous batch; the
// rest keep their newBatch image), and per-lane control state.  Temporary
// rows need no reset — the compiler guarantees every temporary is written
// before read on all paths.
func (r *Runner) resetBatch(b *laneBatch, base, cnt int) {
	W := r.w
	bdx := r.baseI[regBdx]
	bx, by := r.baseI[regBx], r.baseI[regBy]
	tx, ty := b.li[regTx*W:regTx*W+cnt], b.li[regTy*W:regTy*W+cnt]
	if r.baseI[regBdy] == 1 {
		// 1-D block: tx == id, ty == 0; skip the per-lane divmod.
		for i := range tx {
			tx[i] = int64(base + i)
		}
		clear(ty)
	} else {
		for i := range tx {
			id := int64(base + i)
			tx[i] = id % bdx
			ty[i] = id / bdx
		}
	}
	bxr, byr := b.li[regBx*W:regBx*W+cnt], b.li[regBy*W:regBy*W+cnt]
	for i := range bxr {
		bxr[i] = bx
		byr[i] = by
	}
	clear(b.pcs[:cnt])
	clear(b.iters[:cnt])
	clear(b.stat[:cnt]) // stRun == 0
	clear(b.errs[:cnt])
	for ln := cnt; ln < W; ln++ {
		b.stat[ln] = stDone
	}
	for _, s := range r.p.mutI {
		vi := r.baseI[numReservedI+s]
		row := b.li[(numReservedI+s)*W : (numReservedI+s)*W+cnt]
		for i := range row {
			row[i] = vi
		}
	}
	for _, s := range r.p.mutF {
		vf := r.baseF[s]
		rowF := b.lf[s*W : s*W+cnt]
		for i := range rowF {
			rowF[i] = vf
		}
	}
	b.base, b.cnt = base, cnt
}

// batch returns the i-th batch context, taking contexts up to it from the
// kernel's free list, or allocating them when it is empty.
func (r *Runner) batch(i int) *laneBatch {
	for len(r.batches) <= i {
		b, _ := r.free.Get().(*laneBatch)
		if b == nil {
			b = r.newBatch()
		}
		r.fillBatch(b)
		r.batches = append(r.batches, b)
	}
	return r.batches[i]
}

// Release returns the Runner's batch contexts to its kernel's free list.
// Call it once the Runner has executed its last block; a Runner used after
// Release takes or allocates contexts afresh.
func (r *Runner) Release() {
	for _, b := range r.batches {
		r.free.Put(b)
	}
	r.batches = nil
}

// lanesStraight runs a barrier-free block batch by batch.  A batch with an
// erroring lane aborts the block with the lowest-thread-id error: threads
// of later batches would run after it in the interpreter's order too.
func (r *Runner) lanesStraight() (interp.Work, error) {
	W := r.w
	n := int(r.baseI[regBdx]) * int(r.baseI[regBdy])
	b := r.batch(0)
	var w interp.Work
	for base := 0; base < n; base += W {
		cnt := min(W, n-base)
		r.resetBatch(b, base, cnt)
		r.runBatch(b, &w, true)
		for ln := 0; ln < cnt; ln++ {
			if b.errs[ln] != nil {
				return interp.Work{}, b.errs[ln]
			}
		}
	}
	return w, nil
}

// lanesPhased runs a barrier kernel: every batch keeps its own context,
// each round runs every batch until all its live lanes are waiting at the
// barrier (or finished), and then the barrier releases all of them — the
// interpreter's block-wide cyclic barrier with early departure.  Like the
// interpreter, every thread runs to completion before the first error in
// thread-id order is reported.
func (r *Runner) lanesPhased() (interp.Work, error) {
	W := r.w
	n := int(r.baseI[regBdx]) * int(r.baseI[regBdy])
	nb := (n + W - 1) / W
	for i := 0; i < nb; i++ {
		base := i * W
		r.resetBatch(r.batch(i), base, min(W, n-base))
	}
	var w interp.Work
	fresh := true
	for {
		for i := 0; i < nb; i++ {
			r.runBatch(r.batches[i], &w, fresh)
		}
		fresh = false
		woke := false
		for i := 0; i < nb; i++ {
			b := r.batches[i]
			for ln := 0; ln < b.cnt; ln++ {
				if b.stat[ln] == stWait {
					b.stat[ln] = stRun
					woke = true
				}
			}
		}
		if !woke {
			break
		}
	}
	for i := 0; i < nb; i++ {
		b := r.batches[i]
		for ln := 0; ln < b.cnt; ln++ {
			if b.errs[ln] != nil {
				return interp.Work{}, fmt.Errorf("vm: phased execution: %w", b.errs[ln])
			}
		}
	}
	return w, nil
}

// gather rebuilds the active set: the runnable lanes at the minimum pc, in
// ascending lane order (which keeps atomics in thread order).  It returns
// the set, its pc, the next-merge pc (smallest parked runnable pc, -1 if
// none), and whether any runnable lane remains.
func (b *laneBatch) gather(act []int) ([]int, int32, int32, bool) {
	act = act[:0]
	minpc, nm := int32(-1), int32(-1)
	for ln := 0; ln < b.cnt; ln++ {
		if b.stat[ln] != stRun {
			continue
		}
		switch pc := b.pcs[ln]; {
		case pc == minpc:
			act = append(act, ln)
		case minpc < 0 || pc < minpc:
			// A new minimum: the old one was below every other pc seen,
			// so it is now the next merge point.
			nm, minpc = minpc, pc
			act = append(act[:0], ln)
		case nm < 0 || pc < nm:
			nm = pc
		}
	}
	return act, max(minpc, 0), nm, minpc >= 0
}

// splitJump resolves a conditional jump for the active set.  taken is
// indexed by lane.  Uniform outcomes keep the set intact; a split keeps the
// half with the lower pc running and parks the other at its pc, folding it
// into nm (so "no parked lanes" stays synonymous with nm < 0).  Lanes
// parked earlier sit at or above the fall-through pc, so the kept half is
// still at the batch minimum; in every case the dispatch loop's merge
// check handles arriving at, or jumping past, parked lanes.
func splitJump(b *laneBatch, act []int, taken []bool, pc, target, nm int32) ([]int, int32, int32) {
	nt := 0
	for _, ln := range act {
		if taken[ln] {
			nt++
		}
	}
	switch nt {
	case 0:
		return act, pc, nm
	case len(act):
		return act, target, nm
	}
	lo, hi, loTaken := pc, target, false
	if target < pc {
		lo, hi, loTaken = target, pc, true
	}
	keep := act[:0]
	for _, ln := range act {
		if taken[ln] == loTaken {
			keep = append(keep, ln)
		} else {
			b.pcs[ln] = hi
		}
	}
	if nm < 0 || hi < nm {
		nm = hi
	}
	return keep, lo, nm
}

// cellMask returns the lane mask of an operand in the indexed loop shapes:
// 0 pins a uniform operand (bit set in u) to its lane-0 cell, -1 leaves the
// lane index alone.
func cellMask(u, bit uint8) int {
	if u&bit != 0 {
		return 0
	}
	return -1
}

// filterRun drops non-runnable lanes from the active set in place.  Only
// the rare lane-death paths use it; the common-case loops assume every
// active lane survives the instruction.
func filterRun(b *laneBatch, act []int) []int {
	keep := act[:0]
	for _, ln := range act {
		if b.stat[ln] == stRun {
			keep = append(keep, ln)
		}
	}
	return keep
}

// fmaRow is ld_fma's dense pass over the raw view, lanes [0, len(c)): c[ln]
// = f32(c[ln] + s*x), x the float at index idx[ln]+off, in the operand
// order order encodes (see opLdFMA).  Each product is rounded to float32
// before the add, as the unfused muladd_f's operands are.  It stops at the
// first lane whose index is out of range and returns how many lanes it
// finished.
func fmaRow(c []float64, idx []int64, raw []byte, off int64, lim uint, s float32, order int32) int {
	idx = idx[:len(c)]
	switch order {
	case 0:
		for ln := range c {
			i := int(idx[ln] + off)
			if uint(i) >= lim {
				return ln
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			c[ln] = float64(float32(c[ln]) + float32(s*x))
		}
	case mulAddSwapBit:
		for ln := range c {
			i := int(idx[ln] + off)
			if uint(i) >= lim {
				return ln
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			c[ln] = float64(float32(s*x) + float32(c[ln]))
		}
	case fmaScalarSecond:
		for ln := range c {
			i := int(idx[ln] + off)
			if uint(i) >= lim {
				return ln
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			c[ln] = float64(float32(c[ln]) + float32(x*s))
		}
	default:
		for ln := range c {
			i := int(idx[ln] + off)
			if uint(i) >= lim {
				return ln
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			c[ln] = float64(float32(x*s) + float32(c[ln]))
		}
	}
	return len(c)
}

// fmaLane is fmaRow's arithmetic for one lane.
func fmaLane(order int32, s, x, c float32) float32 {
	switch order {
	case 0:
		return c + float32(s*x)
	case mulAddSwapBit:
		return float32(s*x) + c
	case fmaScalarSecond:
		return c + float32(x*s)
	default:
		return float32(x*s) + c
	}
}

// runBatch drives one batch until no lane is runnable: all lanes have
// returned, died, or suspended at a barrier.  Work for the batch is
// accumulated locally and flushed once at the end; an instruction charges
// every lane it was issued to, which matches the interpreter exactly because
// a block with any dead lane reports zero Work anyway.
//
// Every per-opcode loop comes in two shapes.  The dense shape fires when
// the active set is exactly lanes [0, n) — act is an ascending subset of
// the lane range, so act[n-1] == n-1 is a sufficient test — and iterates
// length-n row slices directly, which drops the indirection through act
// and lets the compiler elide the slab bounds checks.  Convergent code
// (the overwhelmingly common case) runs dense end to end; divergent
// lane subsets fall back to the indexed shape.
//
// fresh asserts that every lane in [0, cnt) is runnable at pc 0 (the state
// resetBatch leaves), letting the entry skip the gather scan.
func (r *Runner) runBatch(b *laneBatch, w *interp.Work, fresh bool) {
	W := r.w
	code := r.p.code
	li, lf := b.li, b.lf
	lens := r.lens
	raws := r.raw
	tkn, one := b.tkn, b.one
	name := r.p.Kernel.Name
	var flops, intops, glb, gsb, shb int64

	var act, all []int // all: the active set while a scalar-executed instruction borrows act
	var stat0 uint8    // lane 0's state saved across one, when lane 0 is not active
	var err0 error
	var pc, nm int32
	if fresh {
		act = b.act[:0]
		for ln := 0; ln < b.cnt; ln++ {
			act = append(act, ln)
		}
		pc, nm = 0, -1
	} else {
		var ok bool
		act, pc, nm, ok = b.gather(b.act)
		if !ok {
			b.act = act
			return
		}
	}
	for {
		if nm >= 0 && pc >= nm {
			// Reached (or jumped past) parked lanes: merge at the minimum.
			for _, ln := range act {
				b.pcs[ln] = pc
			}
			act, pc, nm, _ = b.gather(act)
		}
		in := &code[pc]
		pc++
		// nl lanes are charged for the instruction: the active set it was
		// issued to.
		nl := int64(len(act))
		if in.u&uExec != 0 {
			// A scalar-executed instruction runs through its ordinary case
			// with the active set swapped for lane 0 alone, whichever lanes
			// are active: the lane-0 cell is the batch scalar's storage.
			all, act = act, one
			if all[0] != 0 {
				stat0, err0 = b.stat[0], b.errs[0]
			}
		}
		switch in.op {
		case opNop:
		case opProf:
			r.prof.counts[in.imm].Add(int64(len(act)))
		case opJmp:
			pc = in.imm
		case opJzI:
			ia := int(in.a) * W
			if n := len(act); act[n-1] == n-1 {
				a, tk := li[ia:ia+n], tkn[:n]
				for ln := range tk {
					tk[ln] = a[ln] == 0
				}
			} else {
				for _, ln := range act {
					tkn[ln] = li[ia+ln] == 0
				}
			}
			act, pc, nm = splitJump(b, act, tkn, pc, in.imm, nm)
		case opJnzI:
			ia := int(in.a) * W
			if n := len(act); act[n-1] == n-1 {
				a, tk := li[ia:ia+n], tkn[:n]
				for ln := range tk {
					tk[ln] = a[ln] != 0
				}
			} else {
				for _, ln := range act {
					tkn[ln] = li[ia+ln] != 0
				}
			}
			act, pc, nm = splitJump(b, act, tkn, pc, in.imm, nm)
		case opJzF:
			ia := int(in.a) * W
			if n := len(act); act[n-1] == n-1 {
				a, tk := lf[ia:ia+n], tkn[:n]
				for ln := range tk {
					tk[ln] = a[ln] == 0
				}
			} else {
				for _, ln := range act {
					tkn[ln] = lf[ia+ln] == 0
				}
			}
			act, pc, nm = splitJump(b, act, tkn, pc, in.imm, nm)
		case opJnzF:
			ia := int(in.a) * W
			if n := len(act); act[n-1] == n-1 {
				a, tk := lf[ia:ia+n], tkn[:n]
				for ln := range tk {
					tk[ln] = a[ln] != 0
				}
			} else {
				for _, ln := range act {
					tkn[ln] = lf[ia+ln] != 0
				}
			}
			act, pc, nm = splitJump(b, act, tkn, pc, in.imm, nm)
		case opCJmpI:
			ia, ib := int(in.a)*W, int(in.b)*W
			kind := in.d &^ cjmpSenseBit
			sense := in.d&cjmpSenseBit != 0
			if n := len(act); act[n-1] == n-1 {
				// The kind switch is hoisted out of the lane loop: this is
				// the loop-guard opcode of every compiled kernel, so a
				// per-lane kind dispatch would dominate the comparison.
				a, tk := li[ia:ia+n], tkn[:n]
				if in.u&uB != 0 {
					// A per-lane value against a batch scalar (`t < j`,
					// `id < n`); binary keeps the scalar in b.
					s := li[ib]
					switch kind {
					case 0:
						for ln := range tk {
							tk[ln] = (a[ln] < s) == sense
						}
					case 1:
						for ln := range tk {
							tk[ln] = (a[ln] <= s) == sense
						}
					case 2:
						for ln := range tk {
							tk[ln] = (a[ln] > s) == sense
						}
					case 3:
						for ln := range tk {
							tk[ln] = (a[ln] >= s) == sense
						}
					case 4:
						for ln := range tk {
							tk[ln] = (a[ln] == s) == sense
						}
					default:
						for ln := range tk {
							tk[ln] = (a[ln] != s) == sense
						}
					}
				} else {
					bb := li[ib : ib+n]
					switch kind {
					case 0:
						for ln := range tk {
							tk[ln] = (a[ln] < bb[ln]) == sense
						}
					case 1:
						for ln := range tk {
							tk[ln] = (a[ln] <= bb[ln]) == sense
						}
					case 2:
						for ln := range tk {
							tk[ln] = (a[ln] > bb[ln]) == sense
						}
					case 3:
						for ln := range tk {
							tk[ln] = (a[ln] >= bb[ln]) == sense
						}
					case 4:
						for ln := range tk {
							tk[ln] = (a[ln] == bb[ln]) == sense
						}
					default:
						for ln := range tk {
							tk[ln] = (a[ln] != bb[ln]) == sense
						}
					}
				}
			} else {
				mb := cellMask(in.u, uB)
				for _, ln := range act {
					tkn[ln] = cmpI(kind, li[ia+ln], li[ib+ln&mb]) == sense
				}
			}
			intops += nl
			act, pc, nm = splitJump(b, act, tkn, pc, in.imm, nm)
		case opCJmpF:
			ia, ib := int(in.a)*W, int(in.b)*W
			kind := in.d &^ cjmpSenseBit
			sense := in.d&cjmpSenseBit != 0
			if n := len(act); act[n-1] == n-1 {
				a, bb, tk := lf[ia:ia+n], lf[ib:ib+n], tkn[:n]
				switch kind {
				case 0:
					for ln := range tk {
						tk[ln] = (a[ln] < bb[ln]) == sense
					}
				case 1:
					for ln := range tk {
						tk[ln] = (a[ln] <= bb[ln]) == sense
					}
				case 2:
					for ln := range tk {
						tk[ln] = (a[ln] > bb[ln]) == sense
					}
				case 3:
					for ln := range tk {
						tk[ln] = (a[ln] >= bb[ln]) == sense
					}
				case 4:
					for ln := range tk {
						tk[ln] = (a[ln] == bb[ln]) == sense
					}
				default:
					for ln := range tk {
						tk[ln] = (a[ln] != bb[ln]) == sense
					}
				}
			} else {
				for _, ln := range act {
					tkn[ln] = cmpF(kind, lf[ia+ln], lf[ib+ln]) == sense
				}
			}
			flops += nl
			act, pc, nm = splitJump(b, act, tkn, pc, in.imm, nm)
		case opTick:
			if n := len(act); act[n-1] == n-1 {
				it := b.iters[:n]
				over := false
				for ln := range it {
					it[ln]++
					if it[ln] > r.maxIters {
						over = true
					}
				}
				if over {
					for ln := range it {
						if it[ln] > r.maxIters {
							b.stat[ln] = stDead
							b.errs[ln] = fmt.Errorf("vm: kernel %s: thread exceeded %d loop iterations (runaway loop?)",
								name, r.maxIters)
						}
					}
					act = filterRun(b, act)
				}
			} else {
				keep := act[:0]
				for _, ln := range act {
					b.iters[ln]++
					if b.iters[ln] > r.maxIters {
						b.stat[ln] = stDead
						b.errs[ln] = fmt.Errorf("vm: kernel %s: thread exceeded %d loop iterations (runaway loop?)",
							name, r.maxIters)
					} else {
						keep = append(keep, ln)
					}
				}
				act = keep
			}
		case opSync:
			for _, ln := range act {
				b.stat[ln] = stWait
				b.pcs[ln] = pc
			}
			act = act[:0]
		case opRet:
			for _, ln := range act {
				b.stat[ln] = stDone
			}
			act = act[:0]
		case opErr:
			msg := r.p.errs[in.imm]
			for _, ln := range act {
				b.stat[ln] = stDead
				b.errs[ln] = errors.New(msg)
			}
			act = act[:0]

		case opMovI:
			id, ia := int(in.d)*W, int(in.a)*W
			if in.u&uA != 0 {
				// Broadcast: the source is a batch scalar.
				v := li[ia]
				for _, ln := range act {
					li[id+ln] = v
				}
			} else if n := len(act); act[n-1] == n-1 {
				copy(li[id:id+n], li[ia:ia+n])
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln]
				}
			}
		case opMovF:
			id, ia := int(in.d)*W, int(in.a)*W
			if in.u&uA != 0 {
				v := lf[ia]
				for _, ln := range act {
					lf[id+ln] = v
				}
			} else if n := len(act); act[n-1] == n-1 {
				copy(lf[id:id+n], lf[ia:ia+n])
			} else {
				for _, ln := range act {
					lf[id+ln] = lf[ia+ln]
				}
			}
		case opMovVar:
			id, ia, ib := (numReservedI+int(in.d))*W, int(in.a)*W, int(in.b)*W
			fd := int(in.d) * W
			if in.u&uA != 0 {
				vi, vf := li[ia], lf[ib]
				for _, ln := range act {
					li[id+ln] = vi
					lf[fd+ln] = vf
				}
			} else if n := len(act); act[n-1] == n-1 {
				copy(li[id:id+n], li[ia:ia+n])
				copy(lf[fd:fd+n], lf[ib:ib+n])
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln]
					lf[fd+ln] = lf[ib+ln]
				}
			}
		case opNotI:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				for ln := range d {
					d[ln] = b2i(a[ln] == 0)
				}
			} else {
				for _, ln := range act {
					li[id+ln] = b2i(li[ia+ln] == 0)
				}
			}
		case opNotF:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], lf[ia:ia+n]
				for ln := range d {
					d[ln] = b2i(a[ln] == 0)
				}
			} else {
				for _, ln := range act {
					li[id+ln] = b2i(lf[ia+ln] == 0)
				}
			}
		case opCastIF:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := lf[id:id+n], li[ia:ia+n]
				for ln := range d {
					d[ln] = float64(float32(a[ln]))
				}
			} else {
				for _, ln := range act {
					lf[id+ln] = float64(float32(li[ia+ln]))
				}
			}
		case opCastFI:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], lf[ia:ia+n]
				for ln := range d {
					d[ln] = int64(a[ln])
				}
			} else {
				for _, ln := range act {
					li[id+ln] = int64(lf[ia+ln])
				}
			}
		case opCastU8:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				for ln := range d {
					d[ln] = int64(byte(a[ln]))
				}
			} else {
				for _, ln := range act {
					li[id+ln] = int64(byte(li[ia+ln]))
				}
			}

		case opNegI:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				for ln := range d {
					d[ln] = -a[ln]
				}
			} else {
				for _, ln := range act {
					li[id+ln] = -li[ia+ln]
				}
			}
			intops += nl
		case opAddI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				if in.u&uB != 0 {
					s := bb[0]
					for ln := range d {
						d[ln] = a[ln] + s
					}
				} else {
					for ln := range d {
						d[ln] = a[ln] + bb[ln]
					}
				}
			} else {
				mb := cellMask(in.u, uB)
				for _, ln := range act {
					li[id+ln] = li[ia+ln] + li[ib+ln&mb]
				}
			}
			intops += nl
		case opSubI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				switch {
				case in.u&uA != 0:
					s := a[0]
					for ln := range d {
						d[ln] = s - bb[ln]
					}
				case in.u&uB != 0:
					s := bb[0]
					for ln := range d {
						d[ln] = a[ln] - s
					}
				default:
					for ln := range d {
						d[ln] = a[ln] - bb[ln]
					}
				}
			} else {
				ma, mb := cellMask(in.u, uA), cellMask(in.u, uB)
				for _, ln := range act {
					li[id+ln] = li[ia+ln&ma] - li[ib+ln&mb]
				}
			}
			intops += nl
		case opMulI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				if in.u&uB != 0 {
					s := bb[0]
					for ln := range d {
						d[ln] = a[ln] * s
					}
				} else {
					for ln := range d {
						d[ln] = a[ln] * bb[ln]
					}
				}
			} else {
				mb := cellMask(in.u, uB)
				for _, ln := range act {
					li[id+ln] = li[ia+ln] * li[ib+ln&mb]
				}
			}
			intops += nl
		case opMulAddI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			ic := int(in.imm) * W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb, c := li[id:id+n], li[ia:ia+n], li[ib:ib+n], li[ic:ic+n]
				switch {
				case in.u&uB != 0:
					s := bb[0]
					for ln := range d {
						d[ln] = c[ln] + a[ln]*s
					}
				case in.u&uC != 0:
					s := c[0]
					for ln := range d {
						d[ln] = s + a[ln]*bb[ln]
					}
				default:
					for ln := range d {
						d[ln] = c[ln] + a[ln]*bb[ln]
					}
				}
			} else {
				mb, mc := cellMask(in.u, uB), cellMask(in.u, uC)
				for _, ln := range act {
					li[id+ln] = li[ic+ln&mc] + li[ia+ln]*li[ib+ln&mb]
				}
			}
			intops += 2 * nl
		case opDivI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				zero := false
				for ln := range d {
					if bb[ln] == 0 {
						zero = true
						break
					}
					d[ln] = a[ln] / bb[ln]
				}
				if !zero {
					intops += nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				if li[ib+ln] == 0 {
					b.stat[ln] = stDead
					b.errs[ln] = fmt.Errorf("vm: %s: integer division by zero", name)
					continue
				}
				li[id+ln] = li[ia+ln] / li[ib+ln]
				keep = append(keep, ln)
			}
			act = keep
			intops += nl
		case opRemI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				zero := false
				for ln := range d {
					if bb[ln] == 0 {
						zero = true
						break
					}
					d[ln] = a[ln] % bb[ln]
				}
				if !zero {
					intops += nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				if li[ib+ln] == 0 {
					b.stat[ln] = stDead
					b.errs[ln] = fmt.Errorf("vm: %s: integer modulo by zero", name)
					continue
				}
				li[id+ln] = li[ia+ln] % li[ib+ln]
				keep = append(keep, ln)
			}
			act = keep
			intops += nl
		case opAndI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				for ln := range d {
					d[ln] = a[ln] & bb[ln]
				}
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln] & li[ib+ln]
				}
			}
			intops += nl
		case opOrI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				for ln := range d {
					d[ln] = a[ln] | bb[ln]
				}
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln] | li[ib+ln]
				}
			}
			intops += nl
		case opXorI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				for ln := range d {
					d[ln] = a[ln] ^ bb[ln]
				}
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln] ^ li[ib+ln]
				}
			}
			intops += nl
		case opShlI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				for ln := range d {
					d[ln] = a[ln] << uint(bb[ln])
				}
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln] << uint(li[ib+ln])
				}
			}
			intops += nl
		case opShrI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				for ln := range d {
					d[ln] = a[ln] >> uint(bb[ln])
				}
			} else {
				for _, ln := range act {
					li[id+ln] = li[ia+ln] >> uint(li[ib+ln])
				}
			}
			intops += nl
		case opLtI, opLeI, opGtI, opGeI, opEqI, opNeI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			kind := uint16(in.op - opLtI)
			mb := cellMask(in.u, uB)
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], li[ia:ia+n], li[ib:ib+n]
				for ln := range d {
					d[ln] = b2i(cmpI(kind, a[ln], bb[ln&mb]))
				}
			} else {
				for _, ln := range act {
					li[id+ln] = b2i(cmpI(kind, li[ia+ln], li[ib+ln&mb]))
				}
			}
			intops += nl

		case opNegF:
			id, ia := int(in.d)*W, int(in.a)*W
			if n := len(act); act[n-1] == n-1 {
				d, a := lf[id:id+n], lf[ia:ia+n]
				for ln := range d {
					d[ln] = -a[ln]
				}
			} else {
				for _, ln := range act {
					lf[id+ln] = -lf[ia+ln]
				}
			}
			flops += nl
		case opAddF:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := lf[id:id+n], lf[ia:ia+n], lf[ib:ib+n]
				switch {
				case in.u&uA != 0:
					s := float32(a[0])
					for ln := range d {
						d[ln] = float64(s + float32(bb[ln]))
					}
				case in.u&uB != 0:
					s := float32(bb[0])
					for ln := range d {
						d[ln] = float64(float32(a[ln]) + s)
					}
				default:
					for ln := range d {
						d[ln] = float64(float32(a[ln]) + float32(bb[ln]))
					}
				}
			} else {
				ma, mb := cellMask(in.u, uA), cellMask(in.u, uB)
				for _, ln := range act {
					lf[id+ln] = float64(float32(lf[ia+ln&ma]) + float32(lf[ib+ln&mb]))
				}
			}
			flops += nl
		case opSubF:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := lf[id:id+n], lf[ia:ia+n], lf[ib:ib+n]
				switch {
				case in.u&uA != 0:
					s := float32(a[0])
					for ln := range d {
						d[ln] = float64(s - float32(bb[ln]))
					}
				case in.u&uB != 0:
					s := float32(bb[0])
					for ln := range d {
						d[ln] = float64(float32(a[ln]) - s)
					}
				default:
					for ln := range d {
						d[ln] = float64(float32(a[ln]) - float32(bb[ln]))
					}
				}
			} else {
				ma, mb := cellMask(in.u, uA), cellMask(in.u, uB)
				for _, ln := range act {
					lf[id+ln] = float64(float32(lf[ia+ln&ma]) - float32(lf[ib+ln&mb]))
				}
			}
			flops += nl
		case opMulF:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := lf[id:id+n], lf[ia:ia+n], lf[ib:ib+n]
				switch {
				case in.u&uA != 0:
					s := float32(a[0])
					for ln := range d {
						d[ln] = float64(s * float32(bb[ln]))
					}
				case in.u&uB != 0:
					s := float32(bb[0])
					for ln := range d {
						d[ln] = float64(float32(a[ln]) * s)
					}
				default:
					for ln := range d {
						d[ln] = float64(float32(a[ln]) * float32(bb[ln]))
					}
				}
			} else {
				ma, mb := cellMask(in.u, uA), cellMask(in.u, uB)
				for _, ln := range act {
					lf[id+ln] = float64(float32(lf[ia+ln&ma]) * float32(lf[ib+ln&mb]))
				}
			}
			flops += nl
		case opMulAddF:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			ic := int(in.imm&0xffff) * W
			swap := in.imm&mulAddSwapBit != 0
			if n := len(act); act[n-1] != n-1 {
				ma, mb := cellMask(in.u, uA), cellMask(in.u, uB)
				if swap {
					for _, ln := range act {
						lf[id+ln] = float64(float32(lf[ia+ln&ma])*float32(lf[ib+ln&mb]) + float32(lf[ic+ln]))
					}
				} else {
					for _, ln := range act {
						lf[id+ln] = float64(float32(lf[ic+ln]) + float32(lf[ia+ln&ma])*float32(lf[ib+ln&mb]))
					}
				}
			} else if in.u&(uA|uB) == 0 {
				d, a, bb, c := lf[id:id+n], lf[ia:ia+n], lf[ib:ib+n], lf[ic:ic+n]
				if swap {
					for ln := range d {
						d[ln] = float64(float32(a[ln])*float32(bb[ln]) + float32(c[ln]))
					}
				} else {
					for ln := range d {
						d[ln] = float64(float32(c[ln]) + float32(a[ln])*float32(bb[ln]))
					}
				}
			} else {
				// One factor is a batch scalar (a coefficient, a row
				// element): hoist it and keep it on its own side of the
				// product.
				d, c := lf[id:id+n], lf[ic:ic+n]
				s, v, sFirst := float32(lf[ia]), lf[ib:ib+n], true
				if in.u&uB != 0 {
					s, v, sFirst = float32(lf[ib]), lf[ia:ia+n], false
				}
				switch {
				case swap && sFirst:
					for ln := range d {
						d[ln] = float64(s*float32(v[ln]) + float32(c[ln]))
					}
				case swap:
					for ln := range d {
						d[ln] = float64(float32(v[ln])*s + float32(c[ln]))
					}
				case sFirst:
					for ln := range d {
						d[ln] = float64(float32(c[ln]) + s*float32(v[ln]))
					}
				default:
					for ln := range d {
						d[ln] = float64(float32(c[ln]) + float32(v[ln])*s)
					}
				}
			}
			flops += 2 * nl
		case opDivF:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := lf[id:id+n], lf[ia:ia+n], lf[ib:ib+n]
				for ln := range d {
					d[ln] = float64(float32(a[ln]) / float32(bb[ln]))
				}
			} else {
				for _, ln := range act {
					lf[id+ln] = float64(float32(lf[ia+ln]) / float32(lf[ib+ln]))
				}
			}
			flops += nl
		case opLtF, opLeF, opGtF, opGeF, opEqF, opNeF:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			kind := uint16(in.op - opLtF)
			mb := cellMask(in.u, uB)
			if n := len(act); act[n-1] == n-1 {
				d, a, bb := li[id:id+n], lf[ia:ia+n], lf[ib:ib+n]
				for ln := range d {
					d[ln] = b2i(cmpF(kind, a[ln], bb[ln&mb]))
				}
			} else {
				for _, ln := range act {
					li[id+ln] = b2i(cmpF(kind, lf[ia+ln], lf[ib+ln&mb]))
				}
			}
			flops += nl

		case opSqrt:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Sqrt(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opExp:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Exp(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opLog:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Log(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opFabs:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Abs(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opFmin:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Min(lf[ia+ln], lf[ib+ln])))
			}
			flops += int64(in.imm) * nl
		case opFmax:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Max(lf[ia+ln], lf[ib+ln])))
			}
			flops += int64(in.imm) * nl
		case opPow:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Pow(lf[ia+ln], lf[ib+ln])))
			}
			flops += int64(in.imm) * nl
		case opSin:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Sin(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opCos:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Cos(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opTanh:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				lf[id+ln] = float64(float32(math.Tanh(lf[ia+ln])))
			}
			flops += int64(in.imm) * nl
		case opMinI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			for _, ln := range act {
				li[id+ln] = min(li[ia+ln], li[ib+ln])
			}
			flops += int64(in.imm) * nl
		case opMaxI:
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			for _, ln := range act {
				li[id+ln] = max(li[ia+ln], li[ib+ln])
			}
			flops += int64(in.imm) * nl
		case opAbsI:
			id, ia := int(in.d)*W, int(in.a)*W
			for _, ln := range act {
				v := li[ia+ln]
				if v < 0 {
					v = -v
				}
				li[id+ln] = v
			}
			flops += int64(in.imm) * nl

		// The global loads/stores run an optimistic dense pass over the raw
		// byte view first: no act indirection, no keep-filter, straight
		// little-endian access.  Any out-of-bounds lane falls back to the
		// exact slow loop, which recomputes from index 0 — loads and plain stores are idempotent, so the partial
		// dense pass leaves nothing stale — and assigns deaths in thread
		// order.
		case opLdGF:
			id, ia := int(in.d)*W, int(in.a)*W
			prm := int(in.b)
			raw := raws[prm]
			lim := uint(lens[prm])
			// uC: the index is row a plus the batch scalar in register imm
			// (`in[id + t]`, `b[j*n + col]`), a fused opAddI charged here.
			var off int64
			if in.u&uC != 0 {
				off = li[int(in.imm)*W]
				intops += nl
			}
			if n := len(act); act[n-1] == n-1 {
				d, a := lf[id:id+n], li[ia:ia+n]
				oob := false
				for ln := range d {
					idx := int(a[ln] + off)
					if uint(idx) >= lim {
						oob = true
						break
					}
					d[ln] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*idx:])))
				}
				if !oob {
					glb += 4 * nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln] + off)
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("load", prm, idx)
					continue
				}
				lf[id+ln] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*idx:])))
				keep = append(keep, ln)
			}
			act = keep
			glb += 4 * nl
		case opLdFMA:
			// ld_gf (uC), muladd_f and mov_var in one pass.  Unlike the
			// load's, the dense pass is not idempotent — it adds into the
			// slot it reads — so when it stops at an out-of-bounds lane the
			// exact loop resumes at that lane, not at lane 0.
			fd, id, ia := int(in.d)*W, (numReservedI+int(in.d))*W, int(in.a)*W
			prm := int(in.imm >> fmaParamShift)
			raw := raws[prm]
			lim := uint(lens[prm])
			off := li[int(in.b)*W]
			s := float32(lf[int(in.imm&0xffff)*W])
			order := in.imm & fmaOrderMask
			intops += nl
			glb += 4 * nl
			flops += 2 * nl
			done := 0
			if n := len(act); act[n-1] == n-1 {
				done = fmaRow(lf[fd:fd+n], li[ia:ia+n], raw, off, lim, s, order)
				clear(li[id : id+done])
				if done == n {
					break
				}
			}
			keep := act[:done]
			for _, ln := range act[done:] {
				idx := int(li[ia+ln] + off)
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("load", prm, idx)
					continue
				}
				var x float32
				x = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*idx:]))
				lf[fd+ln] = float64(fmaLane(order, s, x, float32(lf[fd+ln])))
				li[id+ln] = 0
				keep = append(keep, ln)
			}
			act = keep
		case opLdGI:
			id, ia := int(in.d)*W, int(in.a)*W
			prm := int(in.b)
			raw := raws[prm]
			lim := uint(lens[prm])
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				oob := false
				for ln := range d {
					idx := int(a[ln])
					if uint(idx) >= lim {
						oob = true
						break
					}
					d[ln] = int64(int32(binary.LittleEndian.Uint32(raw[4*idx:])))
				}
				if !oob {
					glb += 4 * nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("load", prm, idx)
					continue
				}
				li[id+ln] = int64(int32(binary.LittleEndian.Uint32(raw[4*idx:])))
				keep = append(keep, ln)
			}
			act = keep
			glb += 4 * nl
		case opLdGU8:
			id, ia := int(in.d)*W, int(in.a)*W
			prm := int(in.b)
			raw := raws[prm]
			lim := uint(lens[prm])
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				oob := false
				for ln := range d {
					idx := int(a[ln])
					if uint(idx) >= lim {
						oob = true
						break
					}
					d[ln] = int64(raw[idx])
				}
				if !oob {
					glb += nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("load", prm, idx)
					continue
				}
				li[id+ln] = int64(raw[idx])
				keep = append(keep, ln)
			}
			act = keep
			glb += nl
		case opStGF:
			id, ia := int(in.d)*W, int(in.a)*W
			prm := int(in.b)
			raw := raws[prm]
			lim := uint(lens[prm])
			if n := len(act); act[n-1] == n-1 {
				d, a := lf[id:id+n], li[ia:ia+n]
				oob := false
				for ln := range d {
					idx := int(a[ln])
					if uint(idx) >= lim {
						oob = true
						break
					}
					binary.LittleEndian.PutUint32(raw[4*idx:], math.Float32bits(float32(d[ln])))
				}
				if !oob {
					gsb += 4 * nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("store", prm, idx)
					continue
				}
				binary.LittleEndian.PutUint32(raw[4*idx:], math.Float32bits(float32(lf[id+ln])))
				keep = append(keep, ln)
			}
			act = keep
			gsb += 4 * nl
		case opStGI:
			id, ia := int(in.d)*W, int(in.a)*W
			prm := int(in.b)
			raw := raws[prm]
			lim := uint(lens[prm])
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				oob := false
				for ln := range d {
					idx := int(a[ln])
					if uint(idx) >= lim {
						oob = true
						break
					}
					binary.LittleEndian.PutUint32(raw[4*idx:], uint32(int32(d[ln])))
				}
				if !oob {
					gsb += 4 * nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("store", prm, idx)
					continue
				}
				binary.LittleEndian.PutUint32(raw[4*idx:], uint32(int32(li[id+ln])))
				keep = append(keep, ln)
			}
			act = keep
			gsb += 4 * nl
		case opStGU8:
			id, ia := int(in.d)*W, int(in.a)*W
			prm := int(in.b)
			raw := raws[prm]
			lim := uint(lens[prm])
			if n := len(act); act[n-1] == n-1 {
				d, a := li[id:id+n], li[ia:ia+n]
				oob := false
				for ln := range d {
					idx := int(a[ln])
					if uint(idx) >= lim {
						oob = true
						break
					}
					raw[idx] = byte(d[ln])
				}
				if !oob {
					gsb += nl
					break
				}
			}
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= lim {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("store", prm, idx)
					continue
				}
				raw[idx] = byte(li[id+ln])
				keep = append(keep, ln)
			}
			act = keep
			gsb += nl

		case opLdSI:
			m := &r.p.shared[in.b]
			id, ia := int(in.d)*W, int(in.a)*W
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= uint(m.n) {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobShared("load", m, idx)
					continue
				}
				li[id+ln] = r.sharedI[m.base+idx]
				keep = append(keep, ln)
			}
			act = keep
			shb += int64(in.imm) * nl
		case opLdSF:
			m := &r.p.shared[in.b]
			id, ia := int(in.d)*W, int(in.a)*W
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= uint(m.n) {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobShared("load", m, idx)
					continue
				}
				lf[id+ln] = r.sharedF[m.base+idx]
				keep = append(keep, ln)
			}
			act = keep
			shb += int64(in.imm) * nl
		case opStS:
			m := &r.p.shared[in.imm]
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= uint(m.n) {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobShared("store", m, idx)
					continue
				}
				r.sharedI[m.base+idx] = li[id+ln]
				r.sharedF[m.base+idx] = lf[ib+ln]
				keep = append(keep, ln)
			}
			act = keep
			shb += int64(m.elem.Size()) * nl

		case opAtGAdd, opAtGMax:
			prm := int(in.imm)
			elem := r.p.Kernel.Params[prm].Elem
			sz := int64(elem.Size())
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			raw := raws[prm]
			isAdd := in.op == opAtGAdd
			keep := act[:0]
			// Ascending lane order is ascending thread order, so lanes
			// arriving together apply their updates in the interpreter's
			// thread order.
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= uint(lens[prm]) {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobGlobal("load", prm, idx)
					continue
				}
				mu := r.am.AtomicShard(prm, idx)
				mu.Lock()
				var oldI int64
				var oldF float64
				switch elem {
				case kir.F32:
					oldF = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*idx:])))
				case kir.I32:
					oldI = int64(int32(binary.LittleEndian.Uint32(raw[4*idx:])))
				case kir.U8:
					oldI = int64(raw[idx])
				}
				glb += sz
				nvI, nvF := oldI, oldF
				if isAdd {
					if elem == kir.F32 {
						nvF = float64(float32(oldF) + float32(lf[ib+ln]))
						nvI = 0
						flops++
					} else {
						nvI = oldI + li[id+ln]
						nvF = 0
						intops++
					}
				} else {
					if oldI < li[id+ln] {
						nvI, nvF = li[id+ln], lf[ib+ln]
					}
					intops++
				}
				switch elem {
				case kir.F32:
					binary.LittleEndian.PutUint32(raw[4*idx:], math.Float32bits(float32(nvF)))
				case kir.I32:
					binary.LittleEndian.PutUint32(raw[4*idx:], uint32(int32(nvI)))
				case kir.U8:
					raw[idx] = byte(nvI)
				}
				gsb += sz
				mu.Unlock()
				keep = append(keep, ln)
			}
			act = keep

		case opAtSAdd, opAtSMax:
			m := &r.p.shared[in.imm]
			sz := int64(m.elem.Size())
			id, ia, ib := int(in.d)*W, int(in.a)*W, int(in.b)*W
			isAdd := in.op == opAtSAdd
			keep := act[:0]
			for _, ln := range act {
				idx := int(li[ia+ln])
				if uint(idx) >= uint(m.n) {
					b.stat[ln] = stDead
					b.errs[ln] = r.oobShared("load", m, idx)
					continue
				}
				cell := m.base + idx
				oldI, oldF := r.sharedI[cell], r.sharedF[cell]
				nvI, nvF := oldI, oldF
				if isAdd {
					if m.elem == kir.F32 {
						nvF = float64(float32(oldF) + float32(lf[ib+ln]))
						nvI = 0
						flops++
					} else {
						nvI = oldI + li[id+ln]
						nvF = 0
						intops++
					}
				} else {
					if oldI < li[id+ln] {
						nvI, nvF = li[id+ln], lf[ib+ln]
					}
					intops++
				}
				r.sharedI[cell] = nvI
				r.sharedF[cell] = nvF
				shb += 2 * sz
				keep = append(keep, ln)
			}
			act = keep

		default:
			err := fmt.Errorf("vm: kernel %s: bad opcode %d at pc %d", name, in.op, pc-1)
			for _, ln := range act {
				b.stat[ln] = stDead
				b.errs[ln] = err
			}
			act = act[:0]
		}
		if in.u&uExec != 0 {
			if len(act) != 0 {
				act = all
			} else {
				// The one execution failed (a zero divisor, an index out of
				// range), as it would have in every active lane: they all
				// die with its error.  Lane 0 need not be one of them.
				err := b.errs[0]
				if all[0] != 0 {
					b.stat[0], b.errs[0] = stat0, err0
				}
				for _, ln := range all {
					b.stat[ln], b.errs[ln] = stDead, err
				}
				act = all[:0]
			}
		}
		if len(act) == 0 {
			// nm < 0 means no runnable lane is parked anywhere (splitJump
			// keeps it current when it parks): the batch is finished, no
			// scan needed.
			if nm < 0 {
				break
			}
			var ok bool
			act, pc, nm, ok = b.gather(act)
			if !ok {
				break
			}
		}
	}
	b.act = act[:0]
	w.Flops += flops
	w.IntOps += intops
	w.GlobalLoadBytes += glb
	w.GlobalStoreBytes += gsb
	w.SharedBytes += shb
}
