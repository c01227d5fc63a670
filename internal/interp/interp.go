// Package interp executes kernel IR for one GPU block at a time.
//
// It is the reference implementation of the "CPU kernel module" the paper's
// compiler generates: all threads of a block run on one CPU worker, one
// after another.  A Runner compiles the kernel once to Go closures
// (compile.go); a kernel with __syncthreads runs each thread as a coroutine
// that yields at every barrier, resumed in thread order (phased.go), so the
// schedule is deterministic.  Alongside execution it accounts the work
// performed (flops, integer ops, bytes moved), which feeds the hardware cost
// models in internal/machine.
//
// Distinct blocks of one launch may be executed concurrently (the CuPBoP /
// Moses-et-al. block-to-thread transform: internal/core fans each node's
// block range over a worker pool).  Cross-block safety for global-memory
// atomics comes from the AtomicMemory capability: backends expose sharded
// per-element locks, which the compiled atomics take.
package interp

import (
	"fmt"

	"cucc/internal/kir"
	"cucc/internal/machine"
)

// Dim3 is a two-dimensional CUDA launch dimension (z is unused by the
// supported kernels).
type Dim3 struct {
	X, Y int
}

// Count returns the total number of elements in the dimension.  An unset Y
// defaults to 1; X must be positive for the dimension to be non-empty.
func (d Dim3) Count() int {
	y := d.Y
	if y == 0 {
		y = 1
	}
	return d.X * y
}

// Dim1 builds a one-dimensional Dim3.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1} }

// Value is a scalar runtime value; integers use I, floats use F.
type Value struct {
	I int64
	F float64
}

// IntV returns an integer Value.
func IntV(v int64) Value { return Value{I: v} }

// FloatV returns a float Value.
func FloatV(v float64) Value { return Value{F: v} }

// Memory provides element-granular access to the global buffers bound to a
// kernel's pointer parameters.  Implementations include node-local memory
// (internal/cluster) and PGAS global pointers (internal/pgas).
type Memory interface {
	LoadF32(param, idx int) float32
	StoreF32(param, idx int, v float32)
	LoadI32(param, idx int) int32
	StoreI32(param, idx int, v int32)
	LoadU8(param, idx int) byte
	StoreU8(param, idx int, v byte)
	// Len returns the number of elements in the buffer bound to param.
	Len(param int) int
}

// RawMemory exposes a pointer parameter's raw little-endian backing bytes,
// so an engine can index buffers directly instead of paying an interface
// dispatch per element.  The slice must alias the same storage the typed
// accessors read and write.  The interpreter uses it when present and goes
// element by element otherwise; the register machine (internal/vm) and the
// suite natives require it.
type RawMemory interface {
	RawBytes(param int) []byte
}

// Work accumulates the dynamic work of executed blocks.  Byte counts cover
// global memory only; shared-memory traffic is tracked separately because it
// stays on-node after migration.
type Work struct {
	Flops            int64
	IntOps           int64
	GlobalLoadBytes  int64
	GlobalStoreBytes int64
	SharedBytes      int64
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Flops += o.Flops
	w.IntOps += o.IntOps
	w.GlobalLoadBytes += o.GlobalLoadBytes
	w.GlobalStoreBytes += o.GlobalStoreBytes
	w.SharedBytes += o.SharedBytes
}

// BlockWork converts measured work into cost-model work, splitting flops by
// the kernel's declared vectorizable fraction (outside (0, 1]: all of them).
func (w Work) BlockWork(simdFraction float64) machine.BlockWork {
	f := simdFraction
	if f <= 0 || f > 1 {
		f = 1
	}
	return machine.BlockWork{
		VecFlops:    float64(w.Flops) * f,
		SerialFlops: float64(w.Flops) * (1 - f),
		IntOps:      float64(w.IntOps),
		Bytes:       float64(w.GlobalLoadBytes + w.GlobalStoreBytes),
	}
}

// Launch describes one kernel launch against a memory space.
type Launch struct {
	Kernel *kir.Kernel
	Grid   Dim3
	Block  Dim3
	// Args holds scalar argument values indexed by parameter position;
	// entries for pointer parameters are ignored (resolved via Mem).
	Args []Value
	Mem  Memory
	// MaxLoopIters bounds the total loop iterations one thread may
	// execute (0 = DefaultMaxLoopIters); a runaway-kernel guard so a
	// buggy while(1) fails with an error instead of hanging.
	MaxLoopIters int64
}

// DefaultMaxLoopIters is the per-thread loop-iteration budget.
const DefaultMaxLoopIters = 1 << 30

// intrinsicFlops approximates the flop cost of each math intrinsic,
// following common throughput tables (used only by the cost model, not for
// correctness).
var intrinsicFlops = map[kir.Intrinsic]int64{
	kir.Sqrt: 4, kir.Exp: 8, kir.Log: 8, kir.Fabs: 1,
	kir.Fmin: 1, kir.Fmax: 1, kir.Pow: 16, kir.Sin: 8, kir.Cos: 8,
	kir.Tanh: 10, kir.MinI: 1, kir.MaxI: 1, kir.AbsI: 1,
}

// IntrinsicFlops returns the modeled flop cost of a math intrinsic.  It is
// the shared accounting table for every execution engine: internal/vm bakes
// these charges into its compiled programs so its Work counters stay
// bit-identical to the interpreter's.
func IntrinsicFlops(fn kir.Intrinsic) int64 { return intrinsicFlops[fn] }

// Runner executes the blocks of one launch.  NewRunner validates the launch,
// rounds the scalar arguments, allocates the shared arrays, and compiles the
// kernel to closures over them and the launch memory, once; the scratch
// (thread slots and shared arrays) is reused across the blocks the runner
// executes.
//
// A Runner is not safe for concurrent use: the intra-node worker pool gives
// each worker its own Runner over the shared Launch.
type Runner struct {
	l       *Launch
	body    stmtFn
	hasSync bool
	// image is a thread's initial slots: the scalar arguments (CUDA float
	// parameters rounded to single precision), zeroed locals, and the
	// compiler's literal operands.
	image  []Value
	shared [][]Value // one per kir.Kernel.Shared entry
	bx, by int64
	seq    thread // sequential-path thread state, reused across threads
	// threads is the phased path's per-thread state, allocated on its first
	// block.
	threads []thread
}

// NewRunner validates the launch and builds a block runner for it.
func NewRunner(l *Launch) (*Runner, error) {
	if err := checkLaunch(l); err != nil {
		return nil, err
	}
	k := l.Kernel
	r := &Runner{l: l, hasSync: k.HasSync(), image: make([]Value, k.NumSlots)}
	copy(r.image, l.Args[:len(k.Params)])
	for i, p := range k.Params {
		if !p.Pointer && p.Elem == kir.F32 {
			r.image[i].F = float64(float32(r.image[i].F))
		}
	}
	r.shared = make([][]Value, len(k.Shared))
	for i, sh := range k.Shared {
		r.shared[i] = make([]Value, sh.Len)
	}
	r.body = compile(r)
	r.seq.slots = make([]Value, len(r.image))
	return r, nil
}

// ExecBlock executes one GPU block (bx, by) of the launch.  The returned
// Work covers every thread of the block; it is zero on error.
func (r *Runner) ExecBlock(bx, by int) (Work, error) {
	r.bx, r.by = int64(bx), int64(by)
	for _, arr := range r.shared {
		clear(arr)
	}
	if r.hasSync {
		return r.runPhased()
	}
	return r.runSequential()
}

// ExecBlock executes one GPU block (bx, by) of the launch.  It is the
// one-shot form of NewRunner + Runner.ExecBlock, for tests that execute
// isolated blocks; block-range executors (ExecGrid, the PGAS ranks, core's
// block workers) hold a Runner so validation and compilation are paid once
// per launch.
func ExecBlock(l *Launch, bx, by int) (Work, error) {
	r, err := NewRunner(l)
	if err != nil {
		return Work{}, err
	}
	return r.ExecBlock(bx, by)
}

func checkLaunch(l *Launch) error {
	k := l.Kernel
	if len(l.Args) < len(k.Params) {
		return fmt.Errorf("interp: kernel %s: %d args for %d params", k.Name, len(l.Args), len(k.Params))
	}
	if l.Grid.Count() <= 0 || l.Block.Count() <= 0 {
		return fmt.Errorf("interp: kernel %s: empty grid or block", k.Name)
	}
	if l.Mem == nil {
		return fmt.Errorf("interp: kernel %s: nil memory", k.Name)
	}
	return nil
}

// start resets t to the first statement of thread (tx, ty).
func (r *Runner) start(t *thread, tx, ty int) {
	t.tx, t.ty = int64(tx), int64(ty)
	t.iters, t.err = 0, nil
	copy(t.slots, r.image)
}

// runSequential executes the threads one after another (valid when the
// kernel has no __syncthreads) and stops at the first error.
func (r *Runner) runSequential() (Work, error) {
	t := &r.seq
	t.work = Work{}
	for ty := 0; ty < max(r.l.Block.Y, 1); ty++ {
		for tx := 0; tx < r.l.Block.X; tx++ {
			r.start(t, tx, ty)
			if r.body(t); t.err != nil {
				return Work{}, t.err
			}
		}
	}
	return t.work, nil
}
