package vm

import (
	"fmt"
	"sync"

	"cucc/internal/interp"
	"cucc/internal/kir"
)

// Runner executes the blocks of one launch through a compiled program on
// the lane-batched dispatcher (lanes.go).  It plays the same role as
// interp.Runner behind core's executor seam: launch validation, compilation
// (cached per kernel), buffer-length caching, and the float32 rounding of
// scalar arguments all happen once in NewRunner; lane register slabs and
// shared arenas are reused across blocks, and Release passes the slabs on
// to the kernel's next Runner.
//
// A Runner is not safe for concurrent use; the intra-node worker pool gives
// each worker its own Runner over the shared Launch.  Cross-runner safety
// for global atomics comes from the memory's interp.AtomicMemory shards.
type Runner struct {
	p  *CompiledKernel
	am interp.AtomicMemory

	// prof is the shared opcode-profile accumulator when profiling was
	// enabled at construction time; nil otherwise (and then p contains no
	// opProf instructions).
	prof *Profile

	lens     []int    // cached Mem.Len per pointer parameter
	raw      [][]byte // raw backing bytes per pointer parameter
	maxIters int64

	// baseI/baseF are the launch-level register images: builtins (bx, by
	// filled per block; tx, ty per lane), constant pools, and rounded
	// scalar arguments.  Batches start as replicas of them.
	baseI []int64
	baseF []float64

	sharedI []int64
	sharedF []float64

	w int // lane width: threads per block, capped at LaneWidth()

	// batches are the batch contexts, taken on demand from free (the
	// kernel's free list for width w) and reused across blocks.  A
	// barrier-free block runs its batches one after another through
	// batches[0]; a barrier block needs one context per batch, so every
	// lane's state survives across rounds.
	batches []*laneBatch
	free    *sync.Pool
}

// NewRunner compiles (or fetches the cached program for) the launch's
// kernel, validates the launch, and builds the per-launch register images.
// It samples the global profiling switch at construction time; callers that
// build several Runners for one launch (the core worker pool) should latch
// the decision once and use NewRunnerProfiled so every worker agrees even
// if SetProfiling races with the launch.
func NewRunner(l *interp.Launch) (*Runner, error) {
	return NewRunnerProfiled(l, profilingEnabled.Load())
}

// NewRunnerProfiled is NewRunner with the profiling decision supplied by
// the caller instead of read from the global switch.
func NewRunnerProfiled(l *interp.Launch, profiled bool) (*Runner, error) {
	p, err := CompileCached(l.Kernel)
	if err != nil {
		return nil, err
	}
	if err := checkLaunch(l); err != nil {
		return nil, err
	}
	mem := l.Mem.(rowMemory)
	r := &Runner{p: p, am: mem, w: min(l.Block.Count(), LaneWidth())}
	r.free = p.free.of(r.w)
	if profiled {
		r.p, r.prof = instrumentCached(l.Kernel, p)
	}
	r.lens = make([]int, len(l.Kernel.Params))
	r.raw = make([][]byte, len(l.Kernel.Params))
	for i, prm := range l.Kernel.Params {
		if prm.Pointer {
			r.lens[i] = mem.Len(i)
			r.raw[i] = mem.RawBytes(i)
		}
	}
	r.maxIters = l.MaxLoopIters
	if r.maxIters == 0 {
		r.maxIters = interp.DefaultMaxLoopIters
	}
	r.baseI = make([]int64, p.numI)
	r.baseF = make([]float64, p.numF)
	r.baseI[regBdx] = int64(l.Block.X)
	r.baseI[regBdy] = int64(max(l.Block.Y, 1))
	r.baseI[regGdx] = int64(l.Grid.X)
	r.baseI[regGdy] = int64(max(l.Grid.Y, 1))
	copy(r.baseI[p.ciBase:], p.constI)
	copy(r.baseF[p.cfBase:], p.constF)
	for i, prm := range l.Kernel.Params {
		v := l.Args[i]
		if !prm.Pointer && prm.Elem == kir.F32 {
			v.F = float64(float32(v.F))
		}
		r.baseI[numReservedI+i] = v.I
		r.baseF[i] = v.F
	}
	r.sharedI = make([]int64, p.sharedLen)
	r.sharedF = make([]float64, p.sharedLen)
	return r, nil
}

func checkLaunch(l *interp.Launch) error {
	k := l.Kernel
	if len(l.Args) < len(k.Params) {
		return fmt.Errorf("vm: kernel %s: %d args for %d params", k.Name, len(l.Args), len(k.Params))
	}
	if l.Grid.Count() <= 0 || l.Block.Count() <= 0 {
		return fmt.Errorf("vm: kernel %s: empty grid or block", k.Name)
	}
	// Every global access indexes a byte row directly.  A memory that must
	// see each element access, like the PGAS view, runs on the interpreter.
	if _, ok := l.Mem.(rowMemory); !ok {
		return fmt.Errorf("vm: kernel %s: memory %T has no byte rows or atomic shards", k.Name, l.Mem)
	}
	return nil
}

// rowMemory is the memory a Runner accepts: byte rows and atomic shards, as
// node memory and HostMem expose them.
type rowMemory interface {
	interp.AtomicMemory
	interp.RawMemory
}

// ExecBlock executes one GPU block (bx, by) of the launch and returns the
// work of all its threads.  On error the returned Work is zero, matching
// the interpreter.
func (r *Runner) ExecBlock(bx, by int) (interp.Work, error) {
	r.baseI[regBx], r.baseI[regBy] = int64(bx), int64(by)
	clear(r.sharedI)
	clear(r.sharedF)
	if r.p.hasSync {
		return r.lanesPhased()
	}
	return r.lanesStraight()
}

// ExecBlock is the one-shot form of NewRunner + Runner.ExecBlock, mirroring
// interp.ExecBlock for callers that execute isolated blocks.
func ExecBlock(l *interp.Launch, bx, by int) (interp.Work, error) {
	r, err := NewRunner(l)
	if err != nil {
		return interp.Work{}, err
	}
	defer r.Release()
	return r.ExecBlock(bx, by)
}

func (r *Runner) oobGlobal(what string, prm, idx int) error {
	return fmt.Errorf("vm: %s: global %s out of bounds: %s[%d] (len %d)",
		r.p.Kernel.Name, what, r.p.Kernel.Params[prm].Name, idx, r.lens[prm])
}

func (r *Runner) oobShared(what string, m *sharedMeta, idx int) error {
	return fmt.Errorf("vm: %s: shared %s out of bounds: %s[%d] (len %d)",
		r.p.Kernel.Name, what, m.name, idx, m.n)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
