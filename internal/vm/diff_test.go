package vm_test

// Differential tests: the interpreter is the semantic oracle.  Every random
// kernel must produce bitwise-identical buffers, identical Work counters,
// and matching error behaviour on the register machine.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/vm"
)

const fuzzLen = 256

type blockRunner interface {
	ExecBlock(bx, by int) (interp.Work, error)
}

type engineFn func(*interp.Launch) (blockRunner, error)

func interpEngine(l *interp.Launch) (blockRunner, error) { return interp.NewRunner(l) }
func vmEngine(l *interp.Launch) (blockRunner, error)     { return vm.NewRunner(l) }

// atLaneWidth runs f with the process lane width set to w.
func atLaneWidth(w int, f func()) {
	defer vm.SetLaneWidth(vm.SetLaneWidth(w))
	f()
}

// runEngine executes every block of the grid in linear order on a fresh copy
// of the initial buffers, returning the final memory image, the accumulated
// Work, and the first error.
func runEngine(eng engineFn, k *kir.Kernel, grid, block interp.Dim3,
	args []interp.Value, init []*interp.HostBuffer, maxIters int64) ([]byte, interp.Work, error) {
	return runEngineOn(eng, k, grid, block, args, init, maxIters, nil)
}

// runEngineOn is runEngine with the engine seeing the host memory through
// wrap (nil: directly).
func runEngineOn(eng engineFn, k *kir.Kernel, grid, block interp.Dim3, args []interp.Value,
	init []*interp.HostBuffer, maxIters int64, wrap func(*interp.HostMem) interp.Memory) ([]byte, interp.Work, error) {
	mem := interp.NewHostMem()
	for i, b := range init {
		cp := &interp.HostBuffer{Elem: b.Elem, Data: append([]byte(nil), b.Data...)}
		mem.Bind(i, cp)
	}
	var seen interp.Memory = mem
	if wrap != nil {
		seen = wrap(mem)
	}
	l := &interp.Launch{Kernel: k, Grid: grid, Block: block, Args: args, Mem: seen,
		MaxLoopIters: maxIters}
	r, err := eng(l)
	if err != nil {
		return nil, interp.Work{}, err
	}
	var total interp.Work
	ydim := max(grid.Y, 1)
	for by := 0; by < ydim; by++ {
		for bx := 0; bx < grid.X; bx++ {
			w, err := r.ExecBlock(bx, by)
			if err != nil {
				return nil, total, err
			}
			total.Add(w)
		}
	}
	var image []byte
	for i := range init {
		image = append(image, mem.Buffer(i).Data...)
	}
	return image, total, nil
}

// fuzzInit builds the fixed fuzz signature's buffers and arguments:
// (float* out, float* a, int* ib, int n, float s).
func fuzzInit() ([]*interp.HostBuffer, []interp.Value) {
	rng := rand.New(rand.NewSource(99))
	av := make([]float32, fuzzLen)
	iv := make([]int32, fuzzLen)
	for i := range av {
		av[i] = float32(rng.NormFloat64())
		iv[i] = int32(rng.Intn(2000) - 1000)
	}
	init := []*interp.HostBuffer{
		interp.ZeroBuffer(kir.F32, fuzzLen),
		interp.NewF32Buffer(av),
		interp.NewI32Buffer(iv),
	}
	args := make([]interp.Value, 5)
	args[3] = interp.IntV(fuzzLen)
	args[4] = interp.FloatV(1.75)
	return init, args
}

// diffRun runs src through the interpreter and the register machine (at
// the current lane width) and asserts equivalence against the interpreter
// oracle.
func diffRun(t *testing.T, src string, grid, block interp.Dim3) {
	t.Helper()
	mod, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	init, args := fuzzInit()
	if d := divergence(mod.Kernels[0], grid, block, args, init); d != "" {
		t.Fatalf("%s\n%s", d, src)
	}
}

// divergence runs k on both engines and describes the first way the
// register machine departs from the interpreter: error, Work, memory.  ""
// means none.
func divergence(k *kir.Kernel, grid, block interp.Dim3, args []interp.Value, init []*interp.HostBuffer) string {
	return divergenceOn(k, grid, block, args, init, nil)
}

// divergenceOn is divergence with the interpreter seeing memory through
// wrap; the register machine always runs on the host memory itself, since
// it accepts no memory without byte rows.
func divergenceOn(k *kir.Kernel, grid, block interp.Dim3, args []interp.Value, init []*interp.HostBuffer,
	wrap func(*interp.HostMem) interp.Memory) string {
	mi, wi, ei := runEngineOn(interpEngine, k, grid, block, args, init, 0, wrap)
	mv, wv, ev := runEngine(vmEngine, k, grid, block, args, init, 0)
	if !sameError(ei, ev) {
		return fmt.Sprintf("error divergence: interp=%v vm=%v", ei, ev)
	}
	if ei != nil {
		if wi != (interp.Work{}) || wv != (interp.Work{}) {
			return fmt.Sprintf("failed blocks must report zero work: interp=%+v vm=%+v", wi, wv)
		}
		return "" // memory after a failed block is undefined
	}
	if wi != wv {
		return fmt.Sprintf("work divergence:\ninterp %+v\nvm %+v", wi, wv)
	}
	for i := range mi {
		if mi[i] != mv[i] {
			return fmt.Sprintf("memory divergence at byte %d: interp=%#x vm=%#x", i, mi[i], mv[i])
		}
	}
	return ""
}

// sameError reports whether the two engines failed alike: both not at all,
// or with the same message once the engine prefixes are made equal — which
// also pins the thread whose error is reported whenever threads fail with
// different messages.
func sameError(ei, ev error) bool {
	if ei == nil || ev == nil {
		return ei == nil && ev == nil
	}
	return strings.ReplaceAll(ei.Error(), "interp:", "vm:") == ev.Error()
}

// gen produces random kernel source over the fixed fuzz signature.
//
// laneSafe restricts generation to kernels whose result is independent of
// the thread interleaving, so the lockstep schedule of a lane batch must be
// bitwise-identical to the thread-serial interpreter: no reads of buffers other
// threads store (ib[...] leaves), and at most one atomic site per buffer
// (an int atomicMax and a straight-line float atomicAdd both commute under
// the reordering lockstep introduces; a second non-commuting site on the
// same cell would not).
type gen struct {
	rng      *rand.Rand
	inFor    bool // "i" is in scope
	laneSafe bool
}

func (g *gen) pick(n int) int { return g.rng.Intn(n) }

// idx wraps an int expression into a provably in-bounds index.
func (g *gen) idx(depth int) string {
	return fmt.Sprintf("(((%s) %% %d + %d) %% %d)", g.intExpr(depth), fuzzLen, fuzzLen, fuzzLen)
}

func (g *gen) intExpr(depth int) string {
	if depth <= 0 {
		switch g.pick(5) {
		case 0:
			return "id"
		case 1:
			return "n"
		case 2:
			return fmt.Sprintf("%d", g.rng.Intn(41)-20)
		case 3:
			if g.inFor {
				return "i"
			}
			return "id"
		default:
			if g.laneSafe {
				// ib may be stored by other threads; reading it back would
				// make the result depend on the engine's interleaving.
				return fmt.Sprintf("(id * %d)", g.rng.Intn(5)+1)
			}
			return fmt.Sprintf("ib[%s]", g.idx(0))
		}
	}
	a, b := g.intExpr(depth-1), g.intExpr(depth-1)
	switch g.pick(10) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / %d)", a, g.rng.Intn(7)+1)
	case 4:
		return fmt.Sprintf("(%s %% %d)", a, g.rng.Intn(15)+1)
	case 5:
		return fmt.Sprintf("(%s & %s)", a, b)
	case 6:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	case 7:
		return fmt.Sprintf("(%s << %d)", a, g.rng.Intn(4))
	case 8:
		return fmt.Sprintf("min(%s, %s)", a, b)
	default:
		return fmt.Sprintf("(%s > %s ? abs(%s) : %s)", a, b, a, b)
	}
}

func (g *gen) fltExpr(depth int) string {
	if depth <= 0 {
		switch g.pick(5) {
		case 0:
			return fmt.Sprintf("a[%s]", g.idx(0))
		case 1:
			return "s"
		case 2:
			return fmt.Sprintf("%.3ff", g.rng.Float64()*8-4)
		case 3:
			return "acc"
		default:
			return fmt.Sprintf("(float)(%s)", g.intExpr(0))
		}
	}
	a, b := g.fltExpr(depth-1), g.fltExpr(depth-1)
	switch g.pick(12) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / (fabsf(%s) + 1.5f))", a, b)
	case 4:
		return fmt.Sprintf("sqrtf(fabsf(%s))", a)
	case 5:
		return fmt.Sprintf("fminf(%s, %s)", a, b)
	case 6:
		return fmt.Sprintf("fmaxf(%s, %s)", a, b)
	case 7:
		return fmt.Sprintf("tanhf(%s)", a)
	case 8:
		return fmt.Sprintf("sinf(%s)", a)
	case 9:
		return fmt.Sprintf("(%s %s %s ? %s : %s)",
			a, []string{"<", "<=", ">", "!="}[g.pick(4)], b, g.fltExpr(depth-1), b)
	case 10:
		return fmt.Sprintf("expf(fminf(%s, 4.0f))", a)
	default:
		return fmt.Sprintf("(%s * 0.5f + (float)(%s))", a, g.intExpr(depth-1))
	}
}

// kernel emits one random kernel; mode selects the template.
func (g *gen) kernel(mode int) string {
	var b strings.Builder
	b.WriteString("__global__ void fz(float* out, float* a, int* ib, int n, float s) {\n")
	if mode == 4 {
		// Shared declarations must precede statements.
		b.WriteString("    __shared__ float tile[32];\n")
	}
	b.WriteString("    int id = ((blockIdx.y * gridDim.x + blockIdx.x) * (blockDim.x * blockDim.y)) + threadIdx.y * blockDim.x + threadIdx.x;\n")
	switch mode {
	case 0: // straight-line arithmetic, optional early return
		if g.pick(3) == 0 {
			b.WriteString(fmt.Sprintf("    if (id %% %d == 0) return;\n", g.rng.Intn(5)+2))
		}
		b.WriteString("    float acc = 0.0f;\n")
		for k := 0; k < g.pick(3)+2; k++ {
			b.WriteString(fmt.Sprintf("    acc = %s;\n", g.fltExpr(2)))
		}
		b.WriteString(fmt.Sprintf("    int t = %s;\n", g.intExpr(2)))
		b.WriteString(fmt.Sprintf("    ib[%s] = t;\n", g.idx(1)))
		b.WriteString(fmt.Sprintf("    out[%s] = acc;\n", g.idx(1)))
	case 1: // for loop with break/continue
		b.WriteString("    float acc = 0.0f;\n")
		g.inFor = true
		b.WriteString(fmt.Sprintf("    for (int i = 0; i < %d; i++) {\n", g.rng.Intn(12)+2))
		if g.pick(2) == 0 {
			b.WriteString(fmt.Sprintf("        if ((i + id) %% %d == 0) continue;\n", g.rng.Intn(4)+2))
		}
		if g.pick(2) == 0 {
			b.WriteString(fmt.Sprintf("        if (i > %d) break;\n", g.rng.Intn(8)+1))
		}
		b.WriteString(fmt.Sprintf("        acc = acc + %s;\n", g.fltExpr(1)))
		b.WriteString("    }\n")
		g.inFor = false
		b.WriteString(fmt.Sprintf("    out[%s] = acc;\n", g.idx(1)))
	case 2: // while loop
		b.WriteString("    float acc = s;\n    int j = 0;\n")
		b.WriteString(fmt.Sprintf("    while (j < %d) {\n", g.rng.Intn(9)+1))
		b.WriteString(fmt.Sprintf("        acc = acc * 0.75f + %s;\n", g.fltExpr(1)))
		b.WriteString("        j = j + 1;\n")
		if g.pick(3) == 0 {
			b.WriteString(fmt.Sprintf("        if (acc > %d.0f) break;\n", g.rng.Intn(50)+5))
		}
		b.WriteString("    }\n")
		b.WriteString(fmt.Sprintf("    out[%s] = acc;\n", g.idx(1)))
	case 3: // atomics
		b.WriteString("    float acc = 0.0f;\n")
		b.WriteString(fmt.Sprintf("    acc = %s;\n", g.fltExpr(2)))
		b.WriteString(fmt.Sprintf("    atomicAdd(&out[%s], acc);\n", g.idx(1)))
		b.WriteString(fmt.Sprintf("    atomicMax(&ib[%s], %s);\n", g.idx(1), g.intExpr(1)))
		if !g.laneSafe && g.pick(2) == 0 {
			// A second atomic op on ib does not commute with the atomicMax
			// above (max∘add != add∘max), so a lane batch's reordering could
			// legitimately diverge; only a thread-serial schedule may
			// compare it.
			b.WriteString(fmt.Sprintf("    atomicAdd(&ib[%s], %s);\n", g.idx(1), g.intExpr(1)))
		}
	case 4: // shared memory + barriers (race-free; unique global writes)
		bs := 32 // tile size; must cover any generated block size
		b.WriteString("    int tid = threadIdx.y * blockDim.x + threadIdx.x;\n")
		b.WriteString(fmt.Sprintf("    float acc = 0.0f;\n    tile[tid] = %s;\n", g.fltExpr(1)))
		b.WriteString("    __syncthreads();\n")
		rounds := g.rng.Intn(3) + 1
		b.WriteString(fmt.Sprintf("    for (int r = 0; r < %d; r++) {\n", rounds))
		b.WriteString(fmt.Sprintf("        float v = tile[(tid + %d) %% %d];\n", g.rng.Intn(7)+1, bs))
		b.WriteString("        __syncthreads();\n")
		b.WriteString("        tile[tid] = v * 0.9f + 0.125f;\n")
		b.WriteString("        acc = acc + v;\n")
		b.WriteString("        __syncthreads();\n")
		b.WriteString("    }\n")
		if g.pick(3) == 0 {
			b.WriteString("    if (tid == 0) return;\n")
		}
		b.WriteString("    out[id] = acc + tile[tid];\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// TestDiffFuzz fuzzes the unrestricted generator, whose kernels may read
// what other threads of the block store.  Their result depends on the
// thread interleaving, so they run at lane width 1, where the schedule is
// the interpreter's thread-serial one.
func TestDiffFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for iter := 0; iter < 200; iter++ {
		g := &gen{rng: rng}
		mode := iter % 5
		src := g.kernel(mode)
		grid := interp.Dim1(rng.Intn(3) + 1)
		block := interp.Dim1([]int{4, 8, 16, 32}[rng.Intn(4)])
		if mode != 4 && rng.Intn(3) == 0 {
			grid = interp.Dim3{X: rng.Intn(2) + 1, Y: 2}
			block = interp.Dim3{X: 4, Y: 2}
		}
		if mode == 4 {
			// Block must fit the tile and grid*block must fit out[] with
			// unique ids.
			block = interp.Dim3{X: []int{8, 16, 32}[rng.Intn(3)], Y: 1}
			if rng.Intn(3) == 0 {
				block = interp.Dim3{X: 8, Y: 2}
			}
			grid = interp.Dim1(rng.Intn(2) + 1)
		}
		t.Run(fmt.Sprintf("iter%03d_mode%d", iter, mode), func(t *testing.T) {
			atLaneWidth(1, func() { diffRun(t, src, grid, block) })
		})
	}
}

// TestDiffFuzzLanes fuzzes lockstep batches against the interpreter:
// lane-safe random kernels (divergence, loops, atomics, barriers) across
// lane widths and deliberately odd block sizes, so partial tail batches,
// split/reconverge paths, and per-batch barrier suspension all get
// exercised.  Each kernel also runs at a cap of 64 or 128, above every block
// size drawn here: one batch exactly as wide as the block.
func TestDiffFuzzLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	widths := []int{4, 8, 16, 32}
	for iter := 0; iter < 200; iter++ {
		g := &gen{rng: rng, laneSafe: true}
		mode := iter % 5
		src := g.kernel(mode)
		grid := interp.Dim1(rng.Intn(3) + 1)
		// Odd block sizes force tail batches at every lane width.
		block := interp.Dim1([]int{3, 5, 7, 8, 13, 16, 31, 32}[rng.Intn(8)])
		if mode != 4 && rng.Intn(3) == 0 {
			grid = interp.Dim3{X: rng.Intn(2) + 1, Y: 2}
			block = interp.Dim3{X: []int{3, 4, 5}[rng.Intn(3)], Y: 2}
		}
		if mode == 4 {
			// Block must fit the 32-element tile with unique tids.
			block = interp.Dim3{X: []int{8, 16, 24, 32}[rng.Intn(4)], Y: 1}
			if rng.Intn(3) == 0 {
				block = interp.Dim3{X: []int{8, 13}[rng.Intn(2)], Y: 2}
			}
			grid = interp.Dim1(rng.Intn(2) + 1)
		}
		for _, w := range []int{widths[iter%len(widths)], []int{64, 128}[iter%2]} {
			t.Run(fmt.Sprintf("iter%03d_mode%d_w%d", iter, mode, w), func(t *testing.T) {
				atLaneWidth(w, func() { diffRun(t, src, grid, block) })
			})
		}
	}
}

// TestLaneTailBatch pins the partial-tail case deterministically: block
// sizes that are not multiples of the lane width, including one smaller
// than a single batch.
func TestLaneTailBatch(t *testing.T) {
	src := `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    int id = ((blockIdx.y * gridDim.x + blockIdx.x) * (blockDim.x * blockDim.y)) + threadIdx.y * blockDim.x + threadIdx.x;
    float acc = s;
    for (int i = 0; i < id % 7 + 1; i++) { acc = acc * 0.5f + a[(id + i) % n]; }
    out[id % n] = acc;
    ib[id % n] = id * 3;
}`
	for _, tc := range []struct{ w, block int }{
		{8, 13}, {8, 5}, {16, 17}, {16, 3}, {4, 7}, {32, 33},
		{64, 200}, {128, 129}, {128, 256}, {256, 257},
	} {
		t.Run(fmt.Sprintf("w%d_block%d", tc.w, tc.block), func(t *testing.T) {
			atLaneWidth(tc.w, func() { diffRun(t, src, interp.Dim1(2), interp.Dim1(tc.block)) })
		})
	}
}

// TestLaneAllLanesDead: a batch where every lane dies must report the
// batch's lowest-thread-id error — the one the thread-serial width-1
// schedule stops at — and never run the later batches.
func TestLaneAllLanesDead(t *testing.T) {
	src := `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    int id = threadIdx.x;
    if (id < 8) { out[n * n] = s; }
    out[id] = 1.0f;
}`
	mod, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := mod.Kernels[0]
	init, args := fuzzInit()
	var wv, wl interp.Work
	var ev, el error
	atLaneWidth(1, func() {
		_, wv, ev = runEngine(vmEngine, k, interp.Dim1(1), interp.Dim1(32), args, init, 0)
	})
	atLaneWidth(8, func() {
		_, wl, el = runEngine(vmEngine, k, interp.Dim1(1), interp.Dim1(32), args, init, 0)
	})
	if ev == nil || el == nil {
		t.Fatalf("expected both widths to fail: w1=%v w8=%v", ev, el)
	}
	if ev.Error() != el.Error() {
		t.Fatalf("error mismatch:\nw1 %v\nw8 %v", ev, el)
	}
	if wv != (interp.Work{}) || wl != (interp.Work{}) {
		t.Fatalf("failed blocks must report zero work: w1=%+v w8=%+v", wv, wl)
	}
}

// TestLaneErrorOrdering: when several lanes die with different errors, the
// block must report the lowest thread id's error — the interpreter's
// thread-id-order first-error rule, which the width-1 schedule follows by
// construction — in both the straight-line and the phased scheduler.
func TestLaneErrorOrdering(t *testing.T) {
	cases := []struct{ name, src string }{
		{"straight", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    int id = threadIdx.x;
    if (id == 3) { ib[0] = 1 / (n - n); }
    if (id == 1) { out[0 - n] = s; }
    out[id] = 1.0f;
}`},
		{"phased", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    __shared__ float tile[8];
    int id = threadIdx.x;
    tile[id] = s;
    __syncthreads();
    if (id == 5) { ib[0] = 1 / (n - n); }
    if (id == 2) { out[0 - n] = tile[id]; }
    out[id] = tile[id];
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := lang.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			k := mod.Kernels[0]
			init, args := fuzzInit()
			var ev, el error
			atLaneWidth(1, func() {
				_, _, ev = runEngine(vmEngine, k, interp.Dim1(1), interp.Dim1(8), args, init, 0)
			})
			atLaneWidth(8, func() {
				_, _, el = runEngine(vmEngine, k, interp.Dim1(1), interp.Dim1(8), args, init, 0)
			})
			if ev == nil || el == nil {
				t.Fatalf("expected both widths to fail: w1=%v w8=%v", ev, el)
			}
			if ev.Error() != el.Error() {
				t.Fatalf("first-error mismatch:\nw1 %v\nw8 %v", ev, el)
			}
			if !strings.Contains(el.Error(), "out of bounds") {
				t.Fatalf("expected the lower thread's oob error to win, got %v", el)
			}
		})
	}
}

// TestDiffErrorParity: failures must occur under both engines, with zero Work.
func TestDiffErrorParity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"data-div-zero", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    int id = threadIdx.x;
    ib[id] = id / (ib[id] - ib[id]);
    out[0] = 1.0f;
}`},
		{"oob-load", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    out[0] = a[n * n];
}`},
		{"negative-index", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    out[0 - n] = s;
}`},
		{"oob-shared-load", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    __shared__ float tile[4];
    tile[threadIdx.x] = s;
    out[0] = tile[n];
}`},
		{"runaway-in-barrier-kernel", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    __shared__ float tile[8];
    tile[threadIdx.x] = s;
    __syncthreads();
    int j = 0;
    while (j < n * n * n) { j = j + 1; }
    out[threadIdx.x] = tile[threadIdx.x];
}`},
		{"mod-zero", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ib[0] = n % (n - 256);
    out[0] = 0.0f;
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := lang.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			k := mod.Kernels[0]
			init := []*interp.HostBuffer{
				interp.ZeroBuffer(kir.F32, 8),
				interp.ZeroBuffer(kir.F32, 8),
				interp.NewI32Buffer(make([]int32, 8)),
			}
			args := make([]interp.Value, 5)
			args[3] = interp.IntV(256)
			args[4] = interp.FloatV(2.5)
			grid, block := interp.Dim1(1), interp.Dim1(4)
			_, wi, ei := runEngine(interpEngine, k, grid, block, args, init, 10000)
			_, wv, ev := runEngine(vmEngine, k, grid, block, args, init, 10000)
			if ei == nil || ev == nil {
				t.Fatalf("expected both engines to fail: interp=%v vm=%v", ei, ev)
			}
			if wi != (interp.Work{}) || wv != (interp.Work{}) {
				t.Fatalf("failed blocks must report zero work: interp=%+v vm=%+v", wi, wv)
			}
		})
	}
}

// TestDiffLoopBudgetParity: both engines must trip the iteration budget at
// the same point and agree on partially-written memory beforehand.
func TestDiffLoopBudgetParity(t *testing.T) {
	src := `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    int j = 0;
    while (j >= 0) { j = j + 1; }
    out[0] = (float)j;
}`
	mod, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := mod.Kernels[0]
	for _, budget := range []int64{1, 17, 4096} {
		mem := func() *interp.HostMem {
			m := interp.NewHostMem()
			m.Bind(0, interp.ZeroBuffer(kir.F32, 4))
			m.Bind(1, interp.ZeroBuffer(kir.F32, 4))
			m.Bind(2, interp.NewI32Buffer(make([]int32, 4)))
			return m
		}
		args := make([]interp.Value, 5)
		li := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(1),
			Args: args, Mem: mem(), MaxLoopIters: budget}
		lv := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(1),
			Args: args, Mem: mem(), MaxLoopIters: budget}
		_, ei := interp.ExecBlock(li, 0, 0)
		_, ev := vm.ExecBlock(lv, 0, 0)
		if ei == nil || ev == nil {
			t.Fatalf("budget %d: expected both to fail: interp=%v vm=%v", budget, ei, ev)
		}
		if !strings.Contains(ev.Error(), "loop iterations") {
			t.Fatalf("budget %d: vm error %v", budget, ev)
		}
	}
}

// TestDiffHandBuiltMixedTypes pins the interpreter's Value-union quirk: an
// integer-typed operand used in a float context reads as 0.0 (and vice
// versa).  Hand-built IR can express this; the front end cannot.
func TestDiffHandBuiltMixedTypes(t *testing.T) {
	// out[0] = fadd(intvar, floatvar) with deliberately mismatched operand
	// types and no coercion casts.
	iv := &kir.VarRef{Name: "x", Slot: 1, T: kir.I32}
	fv := &kir.VarRef{Name: "y", Slot: 2, T: kir.F32}
	outRef := kir.MemRef{Space: kir.Global, Param: 0, Name: "out"}
	k := &kir.Kernel{
		Name: "mixed",
		Params: []kir.Param{
			{Name: "out", Elem: kir.F32, Pointer: true},
		},
		NumSlots: 3,
		Body: kir.Block{
			&kir.Decl{Name: "x", Slot: 1, T: kir.I32, Init: &kir.IntLit{Val: 7}},
			&kir.Decl{Name: "y", Slot: 2, T: kir.F32, Init: &kir.FloatLit{Val: 2.5}},
			// Float add where the left operand is integer-typed: its F
			// field is 0, so the result is 0.0 + 2.5.
			&kir.Store{Mem: outRef, Index: &kir.IntLit{Val: 0},
				Value: &kir.Binary{Op: kir.Add, L: iv, R: fv, T: kir.F32}},
			// Mixed the other way: the int view of a float value is 0.
			&kir.Store{Mem: outRef, Index: &kir.IntLit{Val: 1},
				Value: &kir.Binary{Op: kir.Mul, L: fv, R: iv, T: kir.F32}},
		},
	}

	init := []*interp.HostBuffer{interp.ZeroBuffer(kir.F32, 4)}
	mi, wi, ei := runEngine(interpEngine, k, interp.Dim1(1), interp.Dim1(2), make([]interp.Value, 1), init, 0)
	mv, wv, ev := runEngine(vmEngine, k, interp.Dim1(1), interp.Dim1(2), make([]interp.Value, 1), init, 0)
	if ei != nil || ev != nil {
		t.Fatalf("errors: interp=%v vm=%v", ei, ev)
	}
	if wi != wv {
		t.Fatalf("work divergence: interp=%+v vm=%+v", wi, wv)
	}
	if !bytes.Equal(mi, mv) {
		t.Fatalf("memory divergence: interp=%v vm=%v", mi, mv)
	}
}

// ugen generates kernels that stress the compiler's value classes.  Locals
// start out thread-invariant (u0, u1, uf, the while counters w0/w1, block
// locals t<n>) or per-thread (v0, vf) and are then assigned and read under
// randomly nested control flow whose conditions, bounds, breaks and
// continues are themselves invariant or per-thread — so a local the
// classifier may share between lanes is written under divergence, read after
// the join, carried across iterations some threads skipped, and so on.  The
// u/v split only biases the mix: the interpreter decides what is correct.
//
// The kernels are race-free by construction (a thread stores only its own
// out/ib cell, nothing loads what a thread stores), so lockstep batches must
// match the thread-serial interpreter bitwise at every lane width, and every
// local flows into the thread's cells at the end so a wrong value is seen.
type ugen struct {
	rng   *rand.Rand
	b     strings.Builder
	ints  []string // int names in scope beyond the fixed locals
	loops int      // enclosing loops
	wdep  int      // enclosing while loops (each owns one of w0, w1)
	seq   int
}

func (g *ugen) pick(n int) int { return g.rng.Intn(n) }

func (g *ugen) line(depth int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("    ", depth+1))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *ugen) idx(e string) string {
	return fmt.Sprintf("(((%s) %% %d + %d) %% %d)", e, fuzzLen, fuzzLen, fuzzLen)
}

// intExpr: variant selects the per-thread-biased leaves.
func (g *ugen) intExpr(depth int, variant bool) string {
	if depth <= 0 {
		if variant && g.pick(3) != 0 {
			return []string{"v0", "id", "threadIdx.x", "(id * 3)"}[g.pick(4)]
		}
		leaves := append([]string{"u0", "u1", "n", "blockIdx.x", "w0", "w1",
			fmt.Sprintf("%d", g.rng.Intn(13)-4)}, g.ints...)
		return leaves[g.pick(len(leaves))]
	}
	a, b := g.intExpr(depth-1, variant), g.intExpr(depth-1, variant && g.pick(2) == 0)
	switch g.pick(9) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / %d)", a, g.rng.Intn(5)+1)
	case 4:
		return fmt.Sprintf("(%s %% %d)", a, g.rng.Intn(9)+1)
	case 5:
		return fmt.Sprintf("min(%s, %s)", a, b)
	case 6:
		// A ternary whose condition and arms vary independently.
		return fmt.Sprintf("(%s ? %s : %s)", g.cond(g.pick(2) == 0), a, b)
	case 7:
		return fmt.Sprintf("(%s %% %d + %s)", a, g.rng.Intn(5)+2, b)
	default:
		return fmt.Sprintf("(%s * %d + %s)", a, g.rng.Intn(4)+1, b)
	}
}

func (g *ugen) fltExpr(depth int, variant bool) string {
	if depth <= 0 {
		switch g.pick(5) {
		case 0:
			if g.pick(3) == 0 {
				// The fused index form: a per-thread base plus a (mostly)
				// uniform offset.
				return fmt.Sprintf("a[id %% 128 + abs(%s) %% 64]", g.intExpr(0, false))
			}
			return fmt.Sprintf("a[%s]", g.idx(g.intExpr(0, variant)))
		case 1:
			if variant {
				return "vf"
			}
			return "uf"
		case 2:
			return "s"
		case 3:
			return fmt.Sprintf("%.2ff", g.rng.Float64()*4-2)
		default:
			return fmt.Sprintf("(float)(%s)", g.intExpr(0, variant))
		}
	}
	a, b := g.fltExpr(depth-1, variant), g.fltExpr(depth-1, variant && g.pick(2) == 0)
	switch g.pick(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s * 0.5f + %s)", a, b)
	case 4:
		return fmt.Sprintf("(%s ? %s : %s)", g.cond(g.pick(2) == 0), a, b)
	case 5:
		return fmt.Sprintf("fminf(%s, %s)", a, b)
	default:
		return fmt.Sprintf("(%s / (fabsf(%s) + 1.5f))", a, b)
	}
}

func (g *ugen) cond(variant bool) string {
	op := []string{"<", "<=", ">", ">=", "==", "!="}[g.pick(6)]
	c := fmt.Sprintf("(%s %% 5 %s %s %% 3)", g.intExpr(1, variant), op, g.intExpr(0, false))
	switch g.pick(6) {
	case 0:
		return fmt.Sprintf("(%s && %s)", c, g.cond(g.pick(2) == 0))
	case 1:
		return fmt.Sprintf("(%s || %s)", c, g.cond(g.pick(2) == 0))
	case 2:
		return fmt.Sprintf("(%s > %s)", g.fltExpr(0, variant), g.fltExpr(0, false))
	}
	return c
}

// bound is a small non-negative trip count.
func (g *ugen) bound(variant bool) string {
	return fmt.Sprintf("(abs(%s) %% 4 + %d)", g.intExpr(1, variant), g.pick(2))
}

func (g *ugen) block(depth, n int) {
	scope := len(g.ints)
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
	g.ints = g.ints[:scope]
}

func (g *ugen) stmt(depth int) {
	variant := g.pick(2) == 0
	kinds := 8
	if depth >= 3 {
		kinds = 5 // assignments only at the bottom
	}
	switch g.pick(kinds) {
	case 0:
		g.line(depth, "%s = %s;", []string{"u0", "u1"}[g.pick(2)], g.intExpr(2, g.pick(4) == 0))
	case 1:
		g.line(depth, "uf = %s;", g.fltExpr(2, g.pick(4) == 0))
	case 2:
		if g.pick(2) == 0 {
			g.line(depth, "v0 = %s;", g.intExpr(2, true))
		} else {
			g.line(depth, "vf = %s;", g.fltExpr(2, true))
		}
	case 3:
		// A block-scoped local, then folded into a function-scoped one.
		name := fmt.Sprintf("t%d", g.seq)
		g.seq++
		g.line(depth, "int %s = %s;", name, g.intExpr(1, g.pick(4) == 0))
		g.ints = append(g.ints, name)
	case 4:
		if g.loops > 0 {
			g.line(depth, "if (%s) %s;", g.cond(variant), []string{"break", "continue"}[g.pick(2)])
		} else if g.pick(4) == 0 {
			g.line(depth, "if (%s) return;", g.cond(true))
		} else {
			g.line(depth, "u1 = u1 + %s;", g.intExpr(1, false))
		}
	case 5:
		g.line(depth, "if (%s) {", g.cond(variant))
		g.block(depth+1, g.pick(3)+1)
		if g.pick(2) == 0 {
			g.line(depth, "} else {")
			g.block(depth+1, g.pick(2)+1)
		}
		g.line(depth, "}")
	case 6:
		name := fmt.Sprintf("i%d", g.seq)
		g.seq++
		g.line(depth, "for (int %s = 0; %s < %s; %s++) {", name, name, g.bound(variant), name)
		g.ints = append(g.ints, name)
		g.loops++
		g.block(depth+1, g.pick(3)+1)
		g.loops--
		g.ints = g.ints[:len(g.ints)-1]
		g.line(depth, "}")
	default:
		if g.wdep >= 2 {
			g.line(depth, "u0 = u0 + 1;")
			return
		}
		// The counter is function-scoped and read after the loop, and it
		// advances first so a continue cannot spin.
		w := fmt.Sprintf("w%d", g.wdep)
		g.line(depth, "%s = 0;", w)
		g.line(depth, "while (%s < %s) {", w, g.bound(variant))
		g.line(depth+1, "%s = %s + 1;", w, w)
		g.loops++
		g.wdep++
		g.block(depth+1, g.pick(3)+1)
		g.wdep--
		g.loops--
		g.line(depth, "}")
	}
}

func (g *ugen) kernel() string {
	g.b.WriteString("__global__ void fz(float* out, float* a, int* ib, int n, float s) {\n")
	g.line(0, "int id = ((blockIdx.y * gridDim.x + blockIdx.x) * (blockDim.x * blockDim.y)) + threadIdx.y * blockDim.x + threadIdx.x;")
	g.line(0, "int u0 = n %% 7;")
	g.line(0, "int u1 = blockIdx.x + 3;")
	g.line(0, "float uf = s * 0.5f;")
	g.line(0, "int w0 = 0;")
	g.line(0, "int w1 = 0;")
	g.line(0, "int v0 = id %% 5;")
	g.line(0, "float vf = a[id %% n];")
	g.block(0, g.pick(4)+3)
	g.line(0, "out[id] = uf + vf + (float)(u0 + u1 * 3 + v0 + w0 * 5 + w1 * 7);")
	g.line(0, "ib[id] = u0 * 31 + u1 * 7 + v0 + w0 * 3 + w1;")
	g.b.WriteString("}\n")
	return g.b.String()
}

// uniformGeometry draws a launch whose blocks leave tail batches at most
// lane widths and whose linear ids stay inside the fuzz buffers.
func uniformGeometry(rng *rand.Rand) (grid, block interp.Dim3) {
	grid = interp.Dim1(rng.Intn(2) + 1)
	block = interp.Dim1([]int{1, 3, 5, 8, 13, 32, 33, 50}[rng.Intn(8)])
	if rng.Intn(4) == 0 {
		grid = interp.Dim3{X: 2, Y: 2}
		block = interp.Dim3{X: []int{3, 5, 8}[rng.Intn(3)], Y: 2}
	}
	return grid, block
}

// wideBlocks are one-block launches past the 64 and 128 lane caps, each
// leaving a tail batch at one of them or both, and up to the default cap;
// their ids stay inside the fuzz buffers.
var wideBlocks = []int{100, 129, 200, 256}

// TestDiffUniformFuzz runs the value-class generator against the
// interpreter at lane widths 1, 4, 8 and 32, and each kernel again at a cap
// of 64, 128 or 256 over one of wideBlocks: full batches and a tail, or the
// whole block in one batch.
func TestDiffUniformFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	iters := 600
	if testing.Short() {
		iters = 150
	}
	widths := []int{1, 4, 8, 32}
	for iter := 0; iter < iters; iter++ {
		src := (&ugen{rng: rng}).kernel()
		grid, block := uniformGeometry(rng)
		w := widths[iter%len(widths)]
		t.Run(fmt.Sprintf("iter%03d_w%d", iter, w), func(t *testing.T) {
			atLaneWidth(w, func() { diffRun(t, src, grid, block) })
		})
		w, wide := []int{64, 128, 256}[iter%3], wideBlocks[iter/3%len(wideBlocks)]
		t.Run(fmt.Sprintf("iter%03d_w%d_block%d", iter, w, wide), func(t *testing.T) {
			atLaneWidth(w, func() { diffRun(t, src, interp.Dim1(1), interp.Dim1(wide)) })
		})
	}
}

// TestMutationAllUniformIsCaught shows the differential oracle able to fail:
// with the classifier forced to call every slot a batch scalar, the
// value-class generator must produce a kernel on which the register machine
// and the interpreter disagree, well inside the -short budget.
func TestMutationAllUniformIsCaught(t *testing.T) {
	vm.ForceAllUniform(true)
	defer vm.ForceAllUniform(false)
	rng := rand.New(rand.NewSource(20261003))
	for iter := 0; iter < 20; iter++ {
		src := (&ugen{rng: rng}).kernel()
		grid, block := uniformGeometry(rng)
		mod, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		init, args := fuzzInit()
		var d string
		atLaneWidth(8, func() { d = divergence(mod.Kernels[0], grid, block, args, init) })
		if d != "" {
			t.Logf("counterexample after %d kernels: %s", iter+1, d)
			return
		}
	}
	t.Fatal("20 generated kernels passed with every slot forced uniform: the oracle cannot see a misclassification")
}

const shapeID = "int id = ((blockIdx.y * gridDim.x + blockIdx.x) * (blockDim.x * blockDim.y)) + threadIdx.y * blockDim.x + threadIdx.x;"

// uniformShapes are the value-class rules one kernel each, over the fuzz
// signature; every one was a failing run of a half-built classifier.  They
// are also the seed corpus of FuzzCompileMatchesInterp (testdata/fuzz).
var uniformShapes = []struct{ name, src string }{
	// A slot that is uniform everywhere else, assigned under a per-thread
	// if and read after the join: the threads that skipped the arm must not
	// see the arm's value.
	{"assign-under-variant-if", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    int u = n % 7;
    float f = s;
    if (id % 3 == 1) { u = u + 5; f = f * 2.0f; } else { if (id % 3 == 2) { u = u - 1; } }
    out[id] = f + (float)u;
    ib[id] = u * 2;
}`},
	// Some threads break out of a loop with a uniform bound; its counter is
	// read afterwards, where each thread needs its own exit value.
	{"variant-break-counter", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    int j = 0;
    float acc = 0.0f;
    while (j < 6) {
        if (a[id % n] * (float)(j + 1) > 1.0f) break;
        acc = acc + a[(id + j) % n];
        j = j + 1;
    }
    int c = 0;
    for (int i = 0; i < 5; i++) {
        if ((i + id) % 3 == 0) continue;
        c = c + i;
    }
    out[id] = acc;
    ib[id] = j * 10 + c;
}`},
	// A uniform loop inside a loop threads leave at different times: the
	// inner counter is shared by whoever is still inside.
	{"uniform-loop-in-variant-loop", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    int i = 0;
    float acc = 0.0f;
    while (i < id % 4) {
        for (int j = 0; j < 3; j++) {
            acc = acc + a[(i * 3 + j) % n];
        }
        i = i + 1;
    }
    out[id] = acc;
    ib[id] = i;
}`},
	// Uniform arms chosen by a per-thread condition, and the same through
	// the && / || lowering: the value at the join is per-thread.
	{"ternary-uniform-arms", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    int v = (id % 2 == 0) ? n * 2 : n * 3;
    float f = (id % 3 == 0) ? s : a[5];
    int c = (n > 3 && id % 2 == 0) || (s > 100.0f);
    int u = (n > 3) ? n / 4 : n * 5;
    out[id] = f + (float)c;
    ib[id] = v + u;
}`},
	// Lane 0 is not in the active set while batch scalars are computed and
	// consumed: the lane-0 cell is storage, not lane 0's value.
	{"sparse-without-lane0", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    float keep = a[id % n];
    if (id % 4 != 0) {
        int q = n / 3;
        for (int j = 0; j < 3; j++) {
            q = q + j * 2;
        }
        ib[id] = q;
        keep = a[q % n] * s;
    }
    out[id] = keep;
}`},
	// One uniform-index shared load per batch, after a barrier, in a block
	// of several batches.
	{"shared-uniform-after-barrier", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    __shared__ float tile[64];
    ` + shapeID + `
    int tid = threadIdx.x;
    tile[tid] = a[id % n] + (float)tid;
    __syncthreads();
    float p = 0.0f;
    for (int r = 0; r < 3; r++) {
        p = p + tile[(r * 7 + n) % blockDim.x];
    }
    out[id] = p + tile[tid];
}`},
	// A barrier only some threads reach: the rest run ahead, so nothing may
	// be shared between them.
	{"barrier-under-variant-if", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    int q = n % 5;
    if (threadIdx.x < 2) { __syncthreads(); }
    q = q + 1;
    ib[id] = q;
    out[id] = (float)q;
}`},
	// Error shapes: the one execution of a uniform instruction fails for
	// every active thread.
	{"uniform-oob-load", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    out[id] = a[n * n];
}`},
	// The index is a per-thread base plus a batch scalar, added inside the
	// load: the reported index is the lowest thread's own.
	{"uniform-offset-oob-load", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    float acc = 0.0f;
    for (int j = 0; j < 4; j++) {
        acc = acc + a[id + j * 100];
    }
    out[id] = acc;
}`},
	{"uniform-div-zero", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    int z = n - n;
    ib[id] = n / z + n % 7;
}`},
	// Thread 0 has returned and thread 2 died on its own before the uniform
	// load fails: thread 1's error is the block's.
	{"uniform-oob-lowest-thread", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    if (id == 0) return;
    if (id == 2) { ib[id] = n / (id - 2); }
    out[id] = a[n * n];
}`},
	// Thread 0 is already dead when the uniform modulo fails in the others:
	// its error stays the block's.
	{"uniform-mod-zero-after-lane0-died", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    if (id == 0) { out[id] = a[id - 1]; }
    int z = n - n;
    ib[id] = n % z;
}`},
	// The accumulate that is one ld_fma instruction, with an index that
	// leaves the buffer part-way through a dense batch.  Its pass adds into
	// the slot it reads, so it cannot restart at lane 0: the lanes before
	// the failing one would add twice, fail the check against a second,
	// unfused computation of the same sum, and report a lower thread's
	// error.
	{"accumulate-oob-mid-batch", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    float acc = a[id % n];
    for (int j = 0; j < 4; j++) {
        float old = acc;
        acc += s * a[id * 3 + j * 40];
        float chk = old + s * a[id * 3 + j * 40];
        if (acc != chk) { ib[id] = n / (n - n); }
    }
    out[id] = acc;
}`},
	// The same accumulate issued to a divergent lane subset, with lanes
	// failing inside it: the exact loop alone, keeping the survivors.
	{"accumulate-oob-divergent", `
__global__ void fz(float* out, float* a, int* ib, int n, float s) {
    ` + shapeID + `
    float acc = a[id % n];
    for (int j = 0; j < 4; j++) {
        if (id % 3 != 1) { acc = a[id * 3 + j * 40] * s + acc; }
    }
    out[id] = acc;
}`},
}

// TestUniformShapes runs the named shapes at lane widths 1, 4 and 32 with a
// block that leaves a tail batch at 4 and at 32, and at the default cap,
// where the block is one batch.
func TestUniformShapes(t *testing.T) {
	for _, sh := range uniformShapes {
		for _, w := range []int{1, 4, 32, vm.LaneWidth()} {
			t.Run(fmt.Sprintf("%s_w%d", sh.name, w), func(t *testing.T) {
				atLaneWidth(w, func() { diffRun(t, sh.src, interp.Dim1(2), interp.Dim1(50)) })
			})
		}
	}
}

// TestDiffHandBuiltDeclAfterUse: hand-built IR need not declare a slot
// before using it.  Here the Decl sits in a per-thread arm, after a read in
// the same arm, and more threads enter the arm on the second pass of the
// enclosing loop: the newcomers must read their own (initial) value, not
// what the first thread left behind, so the slot cannot share a cell even
// though its only write is a Decl of a constant.
func TestDiffHandBuiltDeclAfterUse(t *testing.T) {
	tid := &kir.BuiltinRef{B: kir.ThreadIdx, Axis: kir.X}
	it := &kir.VarRef{Name: "it", Slot: 1, T: kir.I32}
	sv := &kir.VarRef{Name: "s", Slot: 2, T: kir.I32}
	outRef := kir.MemRef{Space: kir.Global, Param: 0, Name: "out"}
	k := &kir.Kernel{
		Name:     "late_decl",
		Params:   []kir.Param{{Name: "out", Elem: kir.F32, Pointer: true}},
		NumSlots: 3,
		Body: kir.Block{
			&kir.For{
				Init: &kir.Decl{Name: "it", Slot: 1, T: kir.I32, Init: kir.Int(0)},
				Cond: kir.Bin(kir.Lt, it, kir.Int(2)),
				Post: &kir.Assign{Name: "it", Slot: 1, Value: kir.Bin(kir.Add, it, kir.Int(1))},
				Body: kir.Block{&kir.If{
					Cond: kir.Bin(kir.Le, tid, it),
					Then: kir.Block{
						&kir.Store{Mem: outRef,
							Index: kir.Bin(kir.Add, tid, kir.Bin(kir.Mul, it, kir.Int(4))),
							Value: &kir.Cast{To: kir.F32, X: sv}},
						&kir.Decl{Name: "s", Slot: 2, T: kir.I32, Init: kir.Int(10)},
					},
				}},
			},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	init := []*interp.HostBuffer{interp.ZeroBuffer(kir.F32, 8)}
	atLaneWidth(4, func() {
		if d := divergence(k, interp.Dim1(1), interp.Dim1(4), make([]interp.Value, 1), init); d != "" {
			t.Fatal(d)
		}
	})
}
