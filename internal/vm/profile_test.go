package vm

import (
	"reflect"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/lang"
)

// profTestLaunch compiles src and builds a launch over a fresh host memory,
// binding a zeroed buffer per pointer param and passing elems for scalars.
func profTestLaunch(t *testing.T, src string, blocks, bs int, elems int) *interp.Launch {
	t.Helper()
	mod, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := mod.Kernels[0]
	mem := interp.NewHostMem()
	args := make([]interp.Value, len(k.Params))
	for i, prm := range k.Params {
		if prm.Pointer {
			mem.Bind(i, interp.ZeroBuffer(prm.Elem, elems))
		} else {
			args[i] = interp.IntV(int64(elems))
		}
	}
	return &interp.Launch{
		Kernel: k,
		Grid:   interp.Dim1(blocks),
		Block:  interp.Dim1(bs),
		Args:   args,
		Mem:    mem,
	}
}

const profLoopSrc = `
__global__ void profloop(float* out, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int i = 0; i < 10; i++)
        acc = acc + 1.0f;
    if (id < n)
        out[id] = acc;
}`

func withProfiling(t *testing.T, fn func()) {
	t.Helper()
	SetProfiling(true)
	ResetProfiles()
	defer func() {
		SetProfiling(false)
		ResetProfiles()
	}()
	fn()
}

// TestProfileCounts: the profiled run yields exact per-opcode counts (the
// loop body executes 10 iterations per thread) and the loop back edge
// counts iterations.
func TestProfileCounts(t *testing.T) {
	withProfiling(t, func() {
		const blocks, bs, elems = 2, 8, 16
		l := profTestLaunch(t, profLoopSrc, blocks, bs, elems)
		r, err := NewRunner(l)
		if err != nil {
			t.Fatal(err)
		}
		if r.prof == nil {
			t.Fatal("profiling enabled but runner has no profile")
		}
		for b := 0; b < blocks; b++ {
			if _, err := r.ExecBlock(b, 0); err != nil {
				t.Fatal(err)
			}
		}
		profs := Profiles()
		if len(profs) != 1 || profs[0].Kernel != "profloop" {
			t.Fatalf("profiles = %+v", profs)
		}
		kp := profs[0]
		threads := int64(blocks * bs)
		find := func(op string) int64 {
			for _, oc := range kp.Opcodes {
				if oc.Op == op {
					return oc.Count
				}
			}
			return 0
		}
		// One ret per thread; the loop head's tick runs once per condition
		// check (10 iterations + the failing exit check); 10 add_f per
		// thread (the loop-body accumulate).
		if got := find("ret"); got != threads {
			t.Errorf("ret count = %d, want %d", got, threads)
		}
		if got := find("tick"); got != 11*threads {
			t.Errorf("tick count = %d, want %d", got, 11*threads)
		}
		if got := find("add_f"); got != 10*threads {
			t.Errorf("add_f count = %d, want %d", got, 10*threads)
		}
		if kp.Instructions <= 0 {
			t.Error("no dynamic instructions counted")
		}
		// The loop closes with an unconditional backward jmp: its counter is
		// the total iteration count.
		if len(kp.BackEdges) == 0 {
			t.Fatal("no back edges found for a loop kernel")
		}
		if got := kp.BackEdges[0].Count; got != 10*threads {
			t.Errorf("hottest back edge count = %d, want %d", got, 10*threads)
		}
		if kp.BackEdges[0].Target > kp.BackEdges[0].PC {
			t.Error("back edge target is not backwards")
		}
		// Nothing in the loop depends on the thread: per thread, the
		// blockIdx*blockDim product, the two initialisations, 11
		// compare-jumps and 10 x (add_f, mov_var, add_i, mov_var) run once
		// per batch, and the stored acc is broadcast for st_gf once.
		if got := kp.ScalarInstructions; got != 54*threads {
			t.Errorf("scalar-executed instructions = %d, want %d", got, 54*threads)
		}
		wantFor := []OpcodeCount{{Op: "st_gf", Count: threads}}
		if kp.Broadcasts != threads || !reflect.DeepEqual(kp.BroadcastFor, wantFor) {
			t.Errorf("broadcasts = %d for %+v, want %d for %+v", kp.Broadcasts, kp.BroadcastFor, threads, wantFor)
		}
	})
}

// TestProfileEquivalence: instrumentation must not change execution — the
// profiled run produces bitwise-identical memory and identical Work.
func TestProfileEquivalence(t *testing.T) {
	const blocks, bs, elems = 4, 16, 64
	run := func() ([]float32, interp.Work) {
		l := profTestLaunch(t, profLoopSrc, blocks, bs, elems)
		r, err := NewRunner(l)
		if err != nil {
			t.Fatal(err)
		}
		var w interp.Work
		for b := 0; b < blocks; b++ {
			bw, err := r.ExecBlock(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			w.Flops += bw.Flops
			w.IntOps += bw.IntOps
			w.GlobalLoadBytes += bw.GlobalLoadBytes
			w.GlobalStoreBytes += bw.GlobalStoreBytes
			w.SharedBytes += bw.SharedBytes
		}
		hm := l.Mem.(*interp.HostMem)
		out := make([]float32, elems)
		for i := range out {
			out[i] = hm.LoadF32(0, i)
		}
		return out, w
	}

	plainMem, plainWork := run()
	var profMem []float32
	var profWork interp.Work
	withProfiling(t, func() {
		profMem, profWork = run()
	})
	if plainWork != profWork {
		t.Errorf("profiling changed Work: %+v vs %+v", plainWork, profWork)
	}
	for i := range plainMem {
		if plainMem[i] != profMem[i] {
			t.Fatalf("profiling changed memory at %d: %g vs %g", i, plainMem[i], profMem[i])
		}
	}
}

// TestProfileBarrierKernel: instrumentation composes with the phased
// scheduler (opSync terminates a block; resuming re-enters the next one).
func TestProfileBarrierKernel(t *testing.T) {
	const src = `
__global__ void profsync(float* out, int n) {
    __shared__ float tmp[64];
    int tid = threadIdx.x;
    tmp[tid] = 1.0f;
    __syncthreads();
    out[tid] = tmp[(tid + 1) % 64];
}`
	withProfiling(t, func() {
		l := profTestLaunch(t, src, 1, 64, 64)
		r, err := NewRunner(l)
		if err != nil {
			t.Fatal(err)
		}
		if !r.p.hasSync {
			t.Fatal("kernel should use the phased scheduler")
		}
		if _, err := r.ExecBlock(0, 0); err != nil {
			t.Fatal(err)
		}
		profs := Profiles()
		if len(profs) != 1 {
			t.Fatalf("got %d profiles", len(profs))
		}
		find := func(op string) int64 {
			for _, oc := range profs[0].Opcodes {
				if oc.Op == op {
					return oc.Count
				}
			}
			return 0
		}
		if got := find("sync"); got != 64 {
			t.Errorf("sync count = %d, want 64", got)
		}
		if got := find("ret"); got != 64 {
			t.Errorf("ret count = %d, want 64", got)
		}
	})
}

// TestProfilingDisabledIsUninstrumented: with profiling off, runners use
// the original cached program — no opProf instructions, no profile.
func TestProfilingDisabledIsUninstrumented(t *testing.T) {
	SetProfiling(false)
	ResetProfiles()
	l := profTestLaunch(t, profLoopSrc, 1, 4, 4)
	r, err := NewRunner(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.prof != nil {
		t.Error("runner has a profile with profiling disabled")
	}
	for _, in := range r.p.code {
		if in.op == opProf {
			t.Fatal("opProf present in uninstrumented program")
		}
	}
	if got := len(Profiles()); got != 0 {
		t.Errorf("got %d profiles with profiling disabled", got)
	}
}

// TestProfileGauges: the metrics bridge exposes live counters.
func TestProfileGauges(t *testing.T) {
	withProfiling(t, func() {
		l := profTestLaunch(t, profLoopSrc, 1, 8, 8)
		r, err := NewRunner(l)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecBlock(0, 0); err != nil {
			t.Fatal(err)
		}
		gauges := ProfileGauges()
		fn, ok := gauges["vm.profile.profloop.instructions"]
		if !ok {
			t.Fatalf("instructions gauge missing; have %d gauges", len(gauges))
		}
		before := fn()
		if before <= 0 {
			t.Errorf("instructions gauge = %g, want > 0", before)
		}
		// Gauges are live: more execution moves the reading.
		if _, err := r.ExecBlock(0, 0); err != nil {
			t.Fatal(err)
		}
		if after := fn(); after <= before {
			t.Errorf("gauge did not advance: %g -> %g", before, after)
		}
		if _, ok := gauges["vm.profile.profloop.op.add_f"]; !ok {
			t.Error("per-opcode gauge missing")
		}
	})
}

// TestInstrumentJumpRemap: every jump in the instrumented program lands on
// an opProf (the block-entry counter sees jump entries, not only
// fall-throughs).
func TestInstrumentJumpRemap(t *testing.T) {
	mod, err := lang.Parse(profLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(mod.Kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	ip, prof := instrument("profloop", p)
	if len(prof.blocks) == 0 {
		t.Fatal("no basic blocks")
	}
	for i, in := range ip.code {
		if isJump(in.op) {
			if tgt := ip.code[in.imm]; tgt.op != opProf {
				t.Errorf("jump at %d targets %v, want opProf", i, tgt.op)
			}
		}
	}
	// Instruction count without opProf matches the original.
	plain := 0
	for _, in := range ip.code {
		if in.op != opProf {
			plain++
		}
	}
	if plain != len(p.code) {
		t.Errorf("instrumented program has %d non-prof instructions, original %d", plain, len(p.code))
	}
	// The written-slot lists are made once, in Compile, from what the
	// classifier saw assigned; the instrumented copy carries them, and they
	// describe its code.
	mutI, mutF := slotWriters(ip.code, p.Kernel.NumSlots)
	if len(p.mutI) == 0 || len(p.mutF) == 0 {
		t.Errorf("compiled kernel records no written slots: int %v float %v", p.mutI, p.mutF)
	}
	if !reflect.DeepEqual(ip.mutI, mutI) || !reflect.DeepEqual(ip.mutF, mutF) {
		t.Errorf("instrumented copy has written slots int %v float %v, its code writes int %v float %v",
			ip.mutI, ip.mutF, mutI, mutF)
	}
}

// slotWriters scans a program for the variable slots it writes: int slots
// are registers [numReservedI, numReservedI+numSlots) of the int file,
// float slots are registers [0, numSlots) of the float file.  Compile takes
// the lists from its classifier instead; this is the check that they
// describe the code.
func slotWriters(code []instr, numSlots int) (mutI, mutF []int) {
	seenI := make([]bool, numSlots)
	seenF := make([]bool, numSlots)
	for _, in := range code {
		switch in.op {
		case opMovVar:
			// Writes int slot d and float slot d directly.
			seenI[in.d] = true
			seenF[in.d] = true
		case opMovI, opNotI, opNotF, opCastFI, opCastU8,
			opNegI, opAddI, opSubI, opMulI, opMulAddI, opDivI, opRemI,
			opAndI, opOrI, opXorI, opShlI, opShrI,
			opLtI, opLeI, opGtI, opGeI, opEqI, opNeI,
			opLtF, opLeF, opGtF, opGeF, opEqF, opNeF,
			opMinI, opMaxI, opAbsI, opLdGI, opLdGU8, opLdSI:
			if s := int(in.d) - numReservedI; s >= 0 && s < numSlots {
				seenI[s] = true
			}
		case opMovF, opCastIF,
			opNegF, opAddF, opSubF, opMulF, opMulAddF, opDivF,
			opSqrt, opExp, opLog, opFabs, opFmin, opFmax, opPow,
			opSin, opCos, opTanh, opLdGF, opLdSF:
			if int(in.d) < numSlots {
				seenF[int(in.d)] = true
			}
		}
	}
	for s := 0; s < numSlots; s++ {
		if seenI[s] {
			mutI = append(mutI, s)
		}
		if seenF[s] {
			mutF = append(mutF, s)
		}
	}
	return mutI, mutF
}
