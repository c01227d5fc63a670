package vm

import (
	"sort"
	"sync"
	"sync/atomic"

	"cucc/internal/kir"
)

// Opt-in opcode profiler.
//
// When profiling is enabled (SetProfiling(true)), NewRunner swaps each
// kernel's cached program for an instrumented copy with one opProf
// instruction at every basic-block entry.  opProf bumps an atomic per-block
// counter; everything else about the program — register layout, constant
// pools, jump structure — is unchanged, so execution semantics (and the
// Work counters) are identical.  Per-opcode dynamic counts are then derived
// exactly from block entry counts times each block's static opcode
// histogram: a block is straight-line code, so every entry executes every
// instruction in it (runtime errors abort mid-block, but an errored launch
// discards its figures anyway).
//
// When profiling is disabled, the cached uninstrumented program runs and
// the dispatch loop never sees an opProf, so the profiler is compiled out
// of the hot path: the only residue is one never-taken switch case.
//
// Back-edge counters: a backward jump (target <= pc) closes a loop.  The
// jump terminates its basic block, so the block's entry count is exactly
// how often the jump was reached; for the unconditional opJmp the compiler
// emits at the bottom of while/for bodies that equals the taken count, i.e.
// the loop's iteration count.

// profilingEnabled gates instrumentation at Runner construction time.
var profilingEnabled atomic.Bool

// SetProfiling turns the opcode profiler on or off for Runners created from
// now on.  Existing Runners keep whatever mode they were built with.
func SetProfiling(on bool) { profilingEnabled.Store(on) }

// ProfilingEnabled reports whether new Runners will profile.
func ProfilingEnabled() bool { return profilingEnabled.Load() }

// blockSpan is one basic block as an instruction range [start, end) in the
// uninstrumented program.
type blockSpan struct {
	start, end int32
}

// Profile accumulates dynamic block-entry counts for one compiled kernel.
// It is shared by every Runner of that kernel (across workers, nodes, and
// sessions); counts are atomic.
type Profile struct {
	kernel string
	src    *CompiledKernel // uninstrumented program: static opcode source
	blocks []blockSpan
	counts []atomic.Int64
}

// profCache memoizes instrumentation per kernel identity while profiling is
// on: every launch of a kernel reuses one instrumented program and one
// accumulator until ResetProfiles empties it.
var profCache sync.Map // *kir.Kernel -> *profiled

type profiled struct {
	p    *CompiledKernel
	prof *Profile
}

// isJump reports whether the opcode's imm is a jump target.
func isJump(o op) bool {
	switch o {
	case opJmp, opJzI, opJnzI, opJzF, opJnzF, opCJmpI, opCJmpF:
		return true
	}
	return false
}

// endsBlock reports whether the opcode terminates a basic block.
func endsBlock(o op) bool {
	return isJump(o) || o == opSync || o == opRet || o == opErr
}

// instrument builds the profiled copy of a compiled program: an opProf at
// every basic-block entry, jump targets remapped to the new indices.
func instrument(kernelName string, p *CompiledKernel) (*CompiledKernel, *Profile) {
	code := p.code
	n := len(code)
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for i, in := range code {
		if isJump(in.op) {
			leader[in.imm] = true
		}
		if endsBlock(in.op) && i+1 < n {
			leader[i+1] = true
		}
	}

	prof := &Profile{kernel: kernelName, src: p}
	oldToNew := make([]int32, n)
	newCode := make([]instr, 0, n+n/4)
	for i, in := range code {
		if leader[i] {
			if len(prof.blocks) > 0 {
				prof.blocks[len(prof.blocks)-1].end = int32(i)
			}
			newCode = append(newCode, instr{op: opProf, imm: int32(len(prof.blocks))})
			prof.blocks = append(prof.blocks, blockSpan{start: int32(i)})
		}
		oldToNew[i] = int32(len(newCode))
		newCode = append(newCode, in)
	}
	if len(prof.blocks) > 0 {
		prof.blocks[len(prof.blocks)-1].end = int32(n)
	}
	for i := range newCode {
		if isJump(newCode[i].op) {
			// Jump to the block's opProf, not past it: the counter must see
			// every entry, not just fall-throughs.
			newCode[i].imm = oldToNew[newCode[i].imm] - 1
		}
	}
	prof.counts = make([]atomic.Int64, len(prof.blocks))

	q := *p // shallow copy: pools, shared metadata, errs, and written-slot lists are immutable (opProf writes no slot)
	q.code = newCode
	return &q, prof
}

// instrumentCached returns the instrumented program and accumulator for a
// kernel, building them at most once per kernel identity.
func instrumentCached(k *kir.Kernel, p *CompiledKernel) (*CompiledKernel, *Profile) {
	if v, ok := profCache.Load(k); ok {
		pr := v.(*profiled)
		return pr.p, pr.prof
	}
	ip, prof := instrument(k.Name, p)
	v, _ := profCache.LoadOrStore(k, &profiled{p: ip, prof: prof})
	pr := v.(*profiled)
	return pr.p, pr.prof
}

// ResetProfiles discards all accumulated profiles (and their instrumented
// programs).
func ResetProfiles() {
	profCache.Range(func(k, _ any) bool {
		profCache.Delete(k)
		return true
	})
}

// OpcodeCount is one opcode's dynamic execution count.
type OpcodeCount struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
}

// BackEdge is one backward jump site: PC and Target are instruction indices
// in the uninstrumented program, Count how often the jump was reached (for
// the unconditional loop-bottom opJmp: the loop's iteration count).
type BackEdge struct {
	PC     int32 `json:"pc"`
	Target int32 `json:"target"`
	Count  int64 `json:"count"`
}

// KernelProfile is the snapshot of one kernel's opcode profile.
type KernelProfile struct {
	Kernel string `json:"kernel"`
	// Blocks is the basic-block count of the compiled program.
	Blocks int `json:"blocks"`
	// Instructions is the total dynamic instruction count (opProf excluded).
	Instructions int64 `json:"instructions"`
	// Opcodes holds nonzero per-opcode counts, largest first.
	Opcodes []OpcodeCount `json:"opcodes"`
	// BackEdges holds nonzero back-edge counters, hottest first.
	BackEdges []BackEdge `json:"back_edges,omitempty"`
	// ScalarInstructions is the part of Instructions that was
	// scalar-executed: run once per lane batch because every operand was
	// thread-invariant, while still counted (and charged) once per thread.
	ScalarInstructions int64 `json:"scalar_instructions,omitempty"`
	// Broadcasts is the part of Instructions that only copied a batch
	// scalar into a row for a consumer with no scalar-operand form, and
	// BroadcastFor counts them by that consumer's opcode, largest first.
	Broadcasts   int64         `json:"broadcasts,omitempty"`
	BroadcastFor []OpcodeCount `json:"broadcast_for,omitempty"`
}

// isBroadcast reports whether in is a compiler-inserted broadcast (see uA).
func isBroadcast(in instr) bool {
	return (in.op == opMovI || in.op == opMovF) && in.imm != 0
}

// snapshot derives the per-opcode and back-edge counts from the block
// counters.
func (pr *Profile) snapshot() KernelProfile {
	kp := KernelProfile{Kernel: pr.kernel, Blocks: len(pr.blocks)}
	var opCounts, bcastFor [numOps]int64
	backEdges := map[[2]int32]int64{}
	for b, span := range pr.blocks {
		c := pr.counts[b].Load()
		if c == 0 {
			continue
		}
		kp.Instructions += c * int64(span.end-span.start)
		for pc := span.start; pc < span.end; pc++ {
			in := pr.src.code[pc]
			opCounts[in.op] += c
			if isJump(in.op) && in.imm <= pc {
				backEdges[[2]int32{pc, in.imm}] += c
			}
			if in.u&uExec != 0 {
				kp.ScalarInstructions += c
			}
			if isBroadcast(in) {
				kp.Broadcasts += c
				bcastFor[in.imm] += c
			}
		}
	}
	kp.Opcodes = sortedOpcodes(opCounts[:])
	kp.BroadcastFor = sortedOpcodes(bcastFor[:])
	for k, c := range backEdges {
		kp.BackEdges = append(kp.BackEdges, BackEdge{PC: k[0], Target: k[1], Count: c})
	}
	sort.Slice(kp.BackEdges, func(i, j int) bool {
		if kp.BackEdges[i].Count != kp.BackEdges[j].Count {
			return kp.BackEdges[i].Count > kp.BackEdges[j].Count
		}
		return kp.BackEdges[i].PC < kp.BackEdges[j].PC
	})
	return kp
}

// sortedOpcodes lists the nonzero entries of a per-opcode count table,
// largest first.
func sortedOpcodes(counts []int64) []OpcodeCount {
	var out []OpcodeCount
	for o, c := range counts {
		if c > 0 {
			out = append(out, OpcodeCount{Op: op(o).String(), Count: c})
		}
	}
	sortOpcodes(out)
	return out
}

func sortOpcodes(ocs []OpcodeCount) {
	sort.Slice(ocs, func(i, j int) bool {
		if ocs[i].Count != ocs[j].Count {
			return ocs[i].Count > ocs[j].Count
		}
		return ocs[i].Op < ocs[j].Op
	})
}

// mergeOpcodes sums two opcode count lists by opcode name.
func mergeOpcodes(a, b []OpcodeCount) []OpcodeCount {
	ops := map[string]int64{}
	for _, oc := range a {
		ops[oc.Op] = oc.Count
	}
	for _, oc := range b {
		ops[oc.Op] += oc.Count
	}
	out := a[:0]
	for o, c := range ops {
		out = append(out, OpcodeCount{Op: o, Count: c})
	}
	sortOpcodes(out)
	return out
}

// Profiles returns a deterministic snapshot of every profiled kernel,
// sorted by kernel name.  Kernels compiled separately under the same name
// (the suites rebuild their programs per call) are merged: opcode counts
// sum by opcode, back edges by (pc, target) — identical sources compile to
// identical code, so the sites line up.
func Profiles() []KernelProfile {
	byName := map[string]*KernelProfile{}
	profCache.Range(func(_, v any) bool {
		kp := v.(*profiled).prof.snapshot()
		if agg, ok := byName[kp.Kernel]; ok {
			mergeProfiles(agg, kp)
		} else {
			byName[kp.Kernel] = &kp
		}
		return true
	})
	out := make([]KernelProfile, 0, len(byName))
	for _, kp := range byName {
		out = append(out, *kp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

func mergeProfiles(agg *KernelProfile, kp KernelProfile) {
	agg.Instructions += kp.Instructions
	agg.ScalarInstructions += kp.ScalarInstructions
	agg.Broadcasts += kp.Broadcasts
	agg.Opcodes = mergeOpcodes(agg.Opcodes, kp.Opcodes)
	agg.BroadcastFor = mergeOpcodes(agg.BroadcastFor, kp.BroadcastFor)
	edges := map[[2]int32]int64{}
	for _, be := range agg.BackEdges {
		edges[[2]int32{be.PC, be.Target}] = be.Count
	}
	for _, be := range kp.BackEdges {
		edges[[2]int32{be.PC, be.Target}] += be.Count
	}
	agg.BackEdges = agg.BackEdges[:0]
	for k, c := range edges {
		agg.BackEdges = append(agg.BackEdges, BackEdge{PC: k[0], Target: k[1], Count: c})
	}
	sort.Slice(agg.BackEdges, func(i, j int) bool {
		if agg.BackEdges[i].Count != agg.BackEdges[j].Count {
			return agg.BackEdges[i].Count > agg.BackEdges[j].Count
		}
		return agg.BackEdges[i].PC < agg.BackEdges[j].PC
	})
}

// ProfileGauges exposes the live profile counters as named gauge functions
// for the metrics bridge (internal/core registers them; the vm package
// stays free of a metrics dependency).  Names follow
// vm.profile.<kernel>.instructions and vm.profile.<kernel>.op.<opcode>.
func ProfileGauges() map[string]func() float64 {
	out := map[string]func() float64{}
	for _, kp := range Profiles() {
		kernel := kp.Kernel
		out["vm.profile."+kernel+".instructions"] = func() float64 {
			for _, p := range Profiles() {
				if p.Kernel == kernel {
					return float64(p.Instructions)
				}
			}
			return 0
		}
		for _, oc := range kp.Opcodes {
			opName := oc.Op
			out["vm.profile."+kernel+".op."+opName] = func() float64 {
				for _, p := range Profiles() {
					if p.Kernel == kernel {
						for _, c := range p.Opcodes {
							if c.Op == opName {
								return float64(c.Count)
							}
						}
					}
				}
				return 0
			}
		}
	}
	return out
}

// opNames maps opcodes to the stable names used in profiles and reports.
var opNames = [numOps]string{
	opNop: "nop", opJmp: "jmp", opJzI: "jz_i", opJnzI: "jnz_i",
	opJzF: "jz_f", opJnzF: "jnz_f", opTick: "tick", opSync: "sync",
	opRet: "ret", opErr: "err",
	opMovI: "mov_i", opMovF: "mov_f", opNotI: "not_i", opNotF: "not_f",
	opCastIF: "cast_if", opCastFI: "cast_fi", opCastU8: "cast_u8",
	opNegI: "neg_i", opAddI: "add_i", opSubI: "sub_i", opMulI: "mul_i",
	opDivI: "div_i", opRemI: "rem_i", opAndI: "and_i", opOrI: "or_i",
	opXorI: "xor_i", opShlI: "shl_i", opShrI: "shr_i",
	opLtI: "lt_i", opLeI: "le_i", opGtI: "gt_i", opGeI: "ge_i",
	opEqI: "eq_i", opNeI: "ne_i",
	opNegF: "neg_f", opAddF: "add_f", opSubF: "sub_f", opMulF: "mul_f",
	opDivF: "div_f", opLtF: "lt_f", opLeF: "le_f", opGtF: "gt_f",
	opGeF: "ge_f", opEqF: "eq_f", opNeF: "ne_f",
	opSqrt: "sqrt", opExp: "exp", opLog: "log", opFabs: "fabs",
	opFmin: "fmin", opFmax: "fmax", opPow: "pow", opSin: "sin",
	opCos: "cos", opTanh: "tanh",
	opMinI: "min_i", opMaxI: "max_i", opAbsI: "abs_i",
	opLdGF: "ld_gf", opLdGI: "ld_gi", opLdGU8: "ld_gu8",
	opStGF: "st_gf", opStGI: "st_gi", opStGU8: "st_gu8",
	opLdSI: "ld_si", opLdSF: "ld_sf", opStS: "st_s",
	opAtGAdd: "at_gadd", opAtGMax: "at_gmax",
	opAtSAdd: "at_sadd", opAtSMax: "at_smax",
	opProf:   "prof",
	opMovVar: "mov_var", opMulAddF: "muladd_f", opMulAddI: "muladd_i",
	opCJmpI: "cjmp_i", opCJmpF: "cjmp_f", opLdFMA: "ld_fma",
}

// String returns the opcode's stable profile name.
func (o op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "unknown"
}
