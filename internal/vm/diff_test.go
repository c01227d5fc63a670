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
	mem := interp.NewHostMem()
	for i, b := range init {
		cp := &interp.HostBuffer{Elem: b.Elem, Data: append([]byte(nil), b.Data...)}
		mem.Bind(i, cp)
	}
	l := &interp.Launch{Kernel: k, Grid: grid, Block: block, Args: args, Mem: mem,
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
	k := mod.Kernels[0]
	init, args := fuzzInit()
	mi, wi, ei := runEngine(interpEngine, k, grid, block, args, init, 0)
	mv, wv, ev := runEngine(vmEngine, k, grid, block, args, init, 0)
	if (ei != nil) != (ev != nil) {
		t.Fatalf("error divergence: interp=%v vm=%v\n%s", ei, ev, src)
	}
	if ei != nil {
		return // both errored; messages carry engine prefixes, memory undefined
	}
	if wi != wv {
		t.Fatalf("work divergence:\ninterp %+v\nvm %+v\n%s", wi, wv, src)
	}
	if !bytes.Equal(mi, mv) {
		for i := range mi {
			if mi[i] != mv[i] {
				t.Fatalf("memory divergence at byte %d: interp=%#x vm=%#x\n%s",
					i, mi[i], mv[i], src)
			}
		}
	}
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
// exercised.
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
		w := widths[iter%len(widths)]
		t.Run(fmt.Sprintf("iter%03d_mode%d_w%d", iter, mode, w), func(t *testing.T) {
			atLaneWidth(w, func() { diffRun(t, src, grid, block) })
		})
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
