// Package vm executes kernel IR through a compile-once register machine.
//
// Where internal/interp runs one thread at a time through a tree of
// closures with an (Value, error) return per node, this package lowers a
// kernel once into a flat instruction slice over two preallocated register
// files (int64 and float64, mirroring the two fields of interp.Value) and
// then dispatches it in a tight loop over warp-style lane batches (see
// lanes.go).  Structured control flow becomes jumps; literals become
// registers preloaded from a constant pool; barrier kernels run as
// cooperatively scheduled batches that suspend at opSync, where the
// interpreter suspends one coroutine per GPU thread.
//
// The interpreter remains the semantic oracle: for every kernel the VM must
// produce bitwise-identical memory, identical Work counters, and the same
// error behaviour.  Where the interpreter has a quirk (e.g. the float view
// of an integer-typed operand is the Value's zero F field), the compiler
// reproduces it exactly; diff_test.go enforces the equivalence on random
// kernels.
package vm

import (
	"sync/atomic"
	"time"

	"cucc/internal/kir"
)

// op enumerates the register-machine opcodes.  Work accounting is baked
// into dispatch: every opcode charges exactly what the interpreter charges
// for the corresponding tree node.
type op uint8

const (
	opNop op = iota

	// Control flow.  Jump targets are absolute instruction indices in imm.
	opJmp  // pc = imm
	opJzI  // if ri[a] == 0: pc = imm
	opJnzI // if ri[a] != 0: pc = imm
	opJzF  // if rf[a] == 0: pc = imm
	opJnzF // if rf[a] != 0: pc = imm
	opTick // charge one loop iteration against the thread budget
	opSync // __syncthreads: suspend the thread until the barrier round ends
	opRet  // thread is done
	opErr  // fail with Program.errs[imm] (lowered from interp runtime errors)

	// Moves (no work charged).
	opMovI // ri[d] = ri[a]
	opMovF // rf[d] = rf[a]

	// Logical / cast helpers (no work charged, matching the interpreter).
	opNotI   // ri[d] = bool(ri[a] == 0)
	opNotF   // ri[d] = bool(rf[a] == 0)
	opCastIF // rf[d] = float64(float32(ri[a]))
	opCastFI // ri[d] = int64(rf[a])
	opCastU8 // ri[d] = int64(byte(ri[a]))

	// Integer ALU (IntOps++ each).
	opNegI
	opAddI
	opSubI
	opMulI
	opDivI // errors on zero divisor
	opRemI // errors on zero divisor
	opAndI
	opOrI
	opXorI
	opShlI // ri[a] << uint(ri[b]), Go over-shift semantics
	opShrI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqI
	opNeI

	// Float ALU (Flops++ each; arithmetic rounds through float32 like the
	// interpreter; comparisons write 0/1 into an int register).
	opNegF
	opAddF
	opSubF
	opMulF
	opDivF
	opLtF
	opLeF
	opGtF
	opGeF
	opEqF
	opNeF

	// Math intrinsics: rf[d] = f32(fn(rf[a][, rf[b]])) or integer forms;
	// imm carries the modeled flop charge (interp.IntrinsicFlops).
	opSqrt
	opExp
	opLog
	opFabs
	opFmin
	opFmax
	opPow
	opSin
	opCos
	opTanh
	opMinI
	opMaxI
	opAbsI

	// Global memory: a = index register, b = parameter index (byte row
	// row_b).  Loads are typed by the Load node's type; stores by row_b's.
	opLdGF  // rf[d] = f32 row_b[ri[a]];  GlobalLoadBytes += 4 (uC: index ri[a]+ri[imm], IntOps++)
	opLdGI  // ri[d] = i32 row_b[ri[a]];  GlobalLoadBytes += 4
	opLdGU8 // ri[d] = u8 row_b[ri[a]];   GlobalLoadBytes += 1
	opStGF  // f32 row_b[ri[a]] = f32(rf[d]); GlobalStoreBytes += 4
	opStGI  // i32 row_b[ri[a]] = i32(ri[d]); GlobalStoreBytes += 4
	opStGU8 // u8 row_b[ri[a]] = byte(ri[d]); GlobalStoreBytes += 1

	// Shared memory.  Shared cells mirror interp.Value pairs, so each array
	// occupies the same [base, base+n) span in both arenas.  Loads: a =
	// index, b = array id, imm = bytes to charge (the Load node's type size;
	// the second load of a pair charges 0).  Store writes both fields: a =
	// index, d = int value, b = float value, imm = array id.
	opLdSI
	opLdSF
	opStS

	// Atomic read-modify-write: a = index register, d = int value register,
	// b = float value register, imm = parameter index (global) or array id
	// (shared).  The element type comes from the parameter / array metadata.
	opAtGAdd
	opAtGMax
	opAtSAdd
	opAtSMax

	// opProf counts one basic-block entry: profile.counts[imm]++.  It is
	// emitted only by the profiler's instrumentation pass (see profile.go);
	// programs compiled with profiling disabled contain no opProf, so the
	// profiler costs nothing when off.
	opProf

	// Fused superinstructions, emitted by the post-compile peephole pass
	// (see fuse in compile.go).  They were chosen from the PR-5 opcode
	// profiles of the evaluation suite: the mov_i/mov_f pair of every
	// variable assignment, the mul/add pairs of the FIR/Conv2D/MatMul
	// inner loops, and the compare+branch pair of every loop condition
	// together dominate the dynamic instruction mix.  Each fused opcode
	// charges exactly what its constituent pair charges, so Work parity
	// with the interpreter is preserved.

	// opMovVar writes one variable slot's full Value pair:
	// ri[numReservedI+d] = ri[a]; rf[d] = rf[b].  d is the slot number.
	opMovVar
	// opMulAddF: rf[d] = f32(c + f32(rf[a])*f32(rf[b])) where c = f32 of
	// the register named by imm's low 16 bits; imm bit 16 set means the
	// product was the ADD's left operand (t + c instead of c + t),
	// preserving the unfused operand order exactly.  Flops += 2.
	opMulAddF
	// opMulAddI: ri[d] = ri[imm&0xffff] + ri[a]*ri[b].  IntOps += 2.
	opMulAddI
	// opCJmpI fuses an integer compare with the conditional jump consuming
	// it: d's low 3 bits are the comparison kind (0..5 = Lt..Ne), bit 3 is
	// the jump sense (0: jump when the compare is false, i.e. the fused
	// opJzI; 1: jump when true, opJnzI).  Charges the compare's IntOps++
	// whether or not the jump is taken.
	opCJmpI
	// opCJmpF is opCJmpI over float operands (Flops++).
	opCJmpF
	// opLdFMA is the accumulate `slot += s * x[idx + off]` of the FIR,
	// Conv2D and MatMul inner loops as one row pass: the adjacent triple
	// opLdGF (uC) → opMulAddF (one factor the loaded temporary, the other a
	// batch scalar) → opMovVar writing the addend's slot, the slot's int
	// half from the zero constant.  d is the slot, a the per-lane index
	// row, b the batch-scalar offset register (uB), and imm packs the
	// batch-scalar factor register (uC), the muladd's add-order swap bit,
	// whether s is the product's second factor, and the parameter index
	// (see fmaParamShift).  rf[d] = f32(rf[d] + s*x) in the unfused
	// operand order; ri[numReservedI+d] = 0.  Charges the triple's Work:
	// IntOps += 1, GlobalLoadBytes += 4, Flops += 2.  See fuser.accumulate.
	opLdFMA

	numOps // sentinel: number of opcodes
)

// cjmp field encoding helpers (opCJmpI/opCJmpF).
const cjmpSenseBit = 1 << 3

// muladd imm encoding: low 16 bits are the addend register, bit 16 flips
// the float add's operand order.
const mulAddSwapBit = 1 << 16

// ld_fma imm encoding: low 16 bits are the scalar factor's register, bit 16
// is mulAddSwapBit, bit 17 puts the scalar second in the product (x*s, the
// muladd's uB form), and bits 18 up hold the parameter index — a pointer
// parameter past fmaMaxParam leaves the triple unfused.
const (
	fmaScalarSecond = 1 << 17
	fmaOrderMask    = mulAddSwapBit | fmaScalarSecond
	fmaParamShift   = 18
	fmaMaxParam     = 1<<(31-fmaParamShift) - 1
)

// instr is one register-machine instruction.  u holds the uniformity flags
// the compiler derived from the operand classes; it sits in the padding
// byte after op, so the instruction stays 12 bytes.
type instr struct {
	op      op
	u       uint8
	d, a, b uint16
	imm     int32
}

// Uniformity flags (instr.u).  A kernel with nothing thread-invariant
// compiles to all-zero flags.
const (
	// uExec: every operand is uniform and the destination is a batch
	// scalar, so the dispatch loop runs the instruction once on the lane-0
	// cells and charges its Work once per active lane.
	uExec uint8 = 1 << iota
	// uA, uB, uC: on a per-lane instruction, operand a / b / the third
	// operand named by imm (the muladd addend; on opLdGF an offset added to
	// the index, a fused opAddI; on opLdFMA the scalar factor) is uniform
	// and is read from its lane-0 cell.  Only the opcodes listed in
	// scalarForms, and the fusions fuse makes of them, accept the flags;
	// every other consumer of a batch scalar is preceded by a broadcast (an
	// opMovI/opMovF carrying uA whose imm names the consumer's opcode for
	// the profiler).
	uA
	uB
	uC
)

// Reserved integer registers 0..7 hold the CUDA special registers; a
// BuiltinRef compiles to a direct register read (reg = 2*Builtin + Axis).
const (
	regTx = iota
	regTy
	regBx
	regBy
	regBdx
	regBdy
	regGdx
	regGdy
	numReservedI
)

// sharedMeta places one __shared__ array inside the shared arenas.
type sharedMeta struct {
	name    string
	elem    kir.ScalarType
	base, n int
}

// CompiledKernel is a kernel lowered to a register-machine program.  It is
// immutable after Compile and safe to share across Runners and goroutines.
//
// Integer register layout: [0,8) CUDA builtins, [8, 8+NumSlots) variable
// slots, then the int constant pool, then per-statement temporaries.  Float
// registers: [0, NumSlots) variable slots, constants, temporaries.  A
// variable slot spans one register in each file, mirroring interp.Value's
// {I, F} pair, so the VM reproduces the interpreter's union semantics (the
// inactive field of a value reads as zero) exactly.
type CompiledKernel struct {
	Kernel *kir.Kernel

	code []instr
	errs []string // opErr messages

	constI []int64   // int constant pool, loaded at register ciBase
	constF []float64 // float constant pool, loaded at register cfBase
	ciBase int
	cfBase int

	numI, numF int // register file sizes

	shared    []sharedMeta
	sharedLen int // total elements across all shared arrays

	hasSync bool

	// mutI / mutF list the variable slots the program writes (int and float
	// register files respectively).  Only these rows go stale between lane
	// batches; Runner.resetBatch skips the rest, which for
	// read-only-argument kernels is all of them.
	mutI, mutF []int

	// free recycles batch contexts between Runners (lanes.go).  It is a
	// pointer so the profiler's instrumented copy, whose register layout is
	// the same, shares it.
	free *batchFree
}

// NumInstructions returns the length of the compiled instruction stream.
func (p *CompiledKernel) NumInstructions() int { return len(p.code) }

// HasSync reports whether the program contains a __syncthreads barrier (and
// therefore keeps one batch context per batch across barrier rounds).
func (p *CompiledKernel) HasSync() bool { return p.hasSync }

// Compile-cache accounting.  The counters are always-on atomics (cheap
// enough to not warrant a registry dependency in the VM); the metrics layer
// bridges them into a registry as gauge functions (see registerVMGauges in
// internal/core).
var (
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	compileNanos atomic.Int64
)

// CacheStats reports the compile cache's cumulative behaviour.
type CacheStats struct {
	// Hits and Misses count CompileCached calls; a miss includes the
	// compile it triggered (losers of a concurrent compile race count as
	// misses too — they compiled, even if their program was discarded).
	Hits, Misses int64
	// CompileSeconds is the total wall time spent inside Compile.
	CompileSeconds float64
}

// ReadCacheStats returns the current compile-cache counters.
func ReadCacheStats() CacheStats {
	return CacheStats{
		Hits:           cacheHits.Load(),
		Misses:         cacheMisses.Load(),
		CompileSeconds: float64(compileNanos.Load()) / 1e9,
	}
}

// CompileCached returns k's compiled program, compiling it once per kernel.
// The program lives on the kernel (kir.Kernel.Program), so it is collected
// together with k; racing first compiles all return the one program the
// compare-and-swap published.
func CompileCached(k *kir.Kernel) (*CompiledKernel, error) {
	if p := k.Program.Load(); p != nil {
		cacheHits.Add(1)
		return (*p).(*CompiledKernel), nil
	}
	cacheMisses.Add(1)
	start := time.Now()
	p, err := Compile(k)
	compileNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	var v any = p
	if !k.Program.CompareAndSwap(nil, &v) {
		return (*k.Program.Load()).(*CompiledKernel), nil
	}
	return p, nil
}
