package interp

import (
	"math"
	"testing"

	"cucc/internal/kir"
	"cucc/internal/lang"
)

func mustKernel(t *testing.T, src, name string) *kir.Kernel {
	t.Helper()
	mod, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := mod.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %s not found", name)
	}
	return k
}

func TestVecCopy(t *testing.T) {
	k := mustKernel(t, `
__global__ void vec_copy(char *src, char *dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        dest[id] = src[id];
}`, "vec_copy")

	const n = 1200
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	mem := NewHostMem()
	mem.Bind(0, NewU8Buffer(src))
	mem.Bind(1, ZeroBuffer(kir.U8, n))

	l := &Launch{
		Kernel: k,
		Grid:   Dim1(5), // ceil(1200/256)
		Block:  Dim1(256),
		Args:   []Value{{}, {}, IntV(n)},
		Mem:    mem,
	}
	w, err := ExecGrid(l)
	if err != nil {
		t.Fatal(err)
	}
	got := mem.Buffer(1).Data
	for i := 0; i < n; i++ {
		if got[i] != src[i] {
			t.Fatalf("dest[%d] = %d, want %d", i, got[i], src[i])
		}
	}
	// 1200 loads and stores of 1 byte each.
	if w.GlobalLoadBytes != n || w.GlobalStoreBytes != n {
		t.Errorf("work = %+v, want %d load and store bytes", w, n)
	}
}

func TestSaxpyWorkCounts(t *testing.T) {
	k := mustKernel(t, `
__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        y[id] = a * x[id] + y[id];
}`, "saxpy")

	const n = 512
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = float32(i)
		y[i] = 1
	}
	mem := NewHostMem()
	mem.Bind(0, NewF32Buffer(x))
	mem.Bind(1, NewF32Buffer(y))
	l := &Launch{Kernel: k, Grid: Dim1(2), Block: Dim1(256),
		Args: []Value{{}, {}, FloatV(2), IntV(n)}, Mem: mem}
	w, err := ExecGrid(l)
	if err != nil {
		t.Fatal(err)
	}
	out := mem.Buffer(1).F32()
	for i := 0; i < n; i++ {
		want := 2*float32(i) + 1
		if out[i] != want {
			t.Fatalf("y[%d] = %g, want %g", i, out[i], want)
		}
	}
	// 2 flops per element (mul + add).
	if w.Flops != 2*n {
		t.Errorf("Flops = %d, want %d", w.Flops, 2*n)
	}
	if w.GlobalLoadBytes != 8*n || w.GlobalStoreBytes != 4*n {
		t.Errorf("bytes = %d/%d, want %d/%d", w.GlobalLoadBytes, w.GlobalStoreBytes, 8*n, 4*n)
	}
}

func TestForLoopReduction(t *testing.T) {
	k := mustKernel(t, `
__global__ void rowsum(float* m, float* out, int cols) {
    int row = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0f;
    for (int j = 0; j < cols; j++)
        s += m[row * cols + j];
    out[row] = s;
}`, "rowsum")

	const rows, cols = 8, 10
	m := make([]float32, rows*cols)
	for i := range m {
		m[i] = float32(i % cols)
	}
	mem := NewHostMem()
	mem.Bind(0, NewF32Buffer(m))
	mem.Bind(1, ZeroBuffer(kir.F32, rows))
	l := &Launch{Kernel: k, Grid: Dim1(2), Block: Dim1(4),
		Args: []Value{{}, {}, IntV(cols)}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	for i, v := range mem.Buffer(1).F32() {
		if v != 45 {
			t.Fatalf("out[%d] = %g, want 45", i, v)
		}
	}
}

func TestSharedMemoryTranspose(t *testing.T) {
	k := mustKernel(t, `
__global__ void transpose(float* in, float* out, int n) {
    __shared__ float tile[256];
    int x = blockIdx.x * 16 + threadIdx.x;
    int y = blockIdx.y * 16 + threadIdx.y;
    tile[threadIdx.y * 16 + threadIdx.x] = in[y * n + x];
    __syncthreads();
    int ox = blockIdx.y * 16 + threadIdx.x;
    int oy = blockIdx.x * 16 + threadIdx.y;
    out[oy * n + ox] = tile[threadIdx.x * 16 + threadIdx.y];
}`, "transpose")

	const n = 64
	in := make([]float32, n*n)
	for i := range in {
		in[i] = float32(i)
	}
	mem := NewHostMem()
	mem.Bind(0, NewF32Buffer(in))
	mem.Bind(1, ZeroBuffer(kir.F32, n*n))
	l := &Launch{Kernel: k,
		Grid:  Dim3{X: n / 16, Y: n / 16},
		Block: Dim3{X: 16, Y: 16},
		Args:  []Value{{}, {}, IntV(n)}, Mem: mem}
	w, err := ExecGrid(l)
	if err != nil {
		t.Fatal(err)
	}
	out := mem.Buffer(1).F32()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if out[r*n+c] != in[c*n+r] {
				t.Fatalf("out[%d][%d] = %g, want %g", r, c, out[r*n+c], in[c*n+r])
			}
		}
	}
	if w.SharedBytes == 0 {
		t.Error("SharedBytes = 0, want > 0 for shared-memory kernel")
	}
}

func TestEarlyReturnWithSync(t *testing.T) {
	// Threads beyond n return before the barrier; the rest must not hang.
	k := mustKernel(t, `
__global__ void partial(float* out, int n) {
    __shared__ float buf[64];
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id >= n) return;
    buf[threadIdx.x] = (float)id;
    __syncthreads();
    out[id] = buf[threadIdx.x] + 1.0f;
}`, "partial")

	const n = 40 // one block of 64, 24 threads exit early
	mem := NewHostMem()
	mem.Bind(0, ZeroBuffer(kir.F32, n))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(64),
		Args: []Value{{}, IntV(n)}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	for i, v := range mem.Buffer(0).F32() {
		if v != float32(i+1) {
			t.Fatalf("out[%d] = %g, want %d", i, v, i+1)
		}
	}
}

func TestAtomicAdd(t *testing.T) {
	k := mustKernel(t, `
__global__ void hist(char* data, int* bins, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        atomicAdd(&bins[data[id]], 1);
}`, "hist")

	const n = 1000
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 16)
	}
	mem := NewHostMem()
	mem.Bind(0, NewU8Buffer(data))
	mem.Bind(1, ZeroBuffer(kir.I32, 16))
	l := &Launch{Kernel: k, Grid: Dim1(4), Block: Dim1(256),
		Args: []Value{{}, {}, IntV(n)}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	bins := mem.Buffer(1).I32()
	for b, c := range bins {
		want := int32(n / 16)
		if b < n%16 {
			want++
		}
		if c != want {
			t.Fatalf("bins[%d] = %d, want %d", b, c, want)
		}
	}
}

func TestIntrinsics(t *testing.T) {
	k := mustKernel(t, `
__global__ void mathk(float* x, float* out, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        out[id] = sqrtf(x[id]) + expf(0.0f) + fminf(x[id], 2.0f) + fmaxf(x[id], 0.5f);
}`, "mathk")

	xs := []float32{0.25, 1, 4, 9}
	mem := NewHostMem()
	mem.Bind(0, NewF32Buffer(xs))
	mem.Bind(1, ZeroBuffer(kir.F32, len(xs)))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(4),
		Args: []Value{{}, {}, IntV(int64(len(xs)))}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	out := mem.Buffer(1).F32()
	for i, x := range xs {
		want := float32(math.Sqrt(float64(x))) + 1 +
			float32(math.Min(float64(x), 2)) + float32(math.Max(float64(x), 0.5))
		if math.Abs(float64(out[i]-want)) > 1e-5 {
			t.Errorf("out[%d] = %g, want %g", i, out[i], want)
		}
	}
}

func TestWhileBreakContinue(t *testing.T) {
	k := mustKernel(t, `
__global__ void collatz(int* x, int* steps, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id >= n) return;
    int v = x[id];
    int c = 0;
    while (1) {
        if (v <= 1) break;
        if (v % 2 == 0) {
            v = v / 2;
            c++;
            continue;
        }
        v = 3 * v + 1;
        c++;
    }
    steps[id] = c;
}`, "collatz")

	xs := []int32{1, 2, 3, 6, 7}
	want := []int32{0, 1, 7, 8, 16}
	mem := NewHostMem()
	mem.Bind(0, NewI32Buffer(xs))
	mem.Bind(1, ZeroBuffer(kir.I32, len(xs)))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(8),
		Args: []Value{{}, {}, IntV(int64(len(xs)))}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	got := mem.Buffer(1).I32()
	for i := range xs {
		if got[i] != want[i] {
			t.Errorf("steps[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	k := mustKernel(t, `
__global__ void oob(float* x) {
    x[threadIdx.x + 100] = 1.0f;
}`, "oob")
	mem := NewHostMem()
	mem.Bind(0, ZeroBuffer(kir.F32, 10))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(1), Args: []Value{{}}, Mem: mem}
	_, err := ExecGrid(l)
	if want := "interp: oob: global store out of bounds: x[100] (len 10)"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

func TestDivisionByZeroDetected(t *testing.T) {
	k := mustKernel(t, `
__global__ void divz(int* x) {
    x[0] = 1 / x[1];
}`, "divz")
	mem := NewHostMem()
	mem.Bind(0, NewI32Buffer([]int32{5, 0}))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(1), Args: []Value{{}}, Mem: mem}
	_, err := ExecGrid(l)
	if want := "interp: divz: integer division by zero"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

func TestLaunchValidation(t *testing.T) {
	k := mustKernel(t, `
__global__ void f(int* x) { x[0] = 1; }`, "f")
	mem := NewHostMem()
	mem.Bind(0, ZeroBuffer(kir.I32, 1))
	cases := []*Launch{
		{Kernel: k, Grid: Dim1(0), Block: Dim1(1), Args: []Value{{}}, Mem: mem},
		{Kernel: k, Grid: Dim1(1), Block: Dim1(1), Args: nil, Mem: mem},
		{Kernel: k, Grid: Dim1(1), Block: Dim1(1), Args: []Value{{}}, Mem: nil},
	}
	for i, l := range cases {
		if _, err := ExecBlock(l, 0, 0); err == nil {
			t.Errorf("case %d: invalid launch accepted", i)
		}
	}
}

func TestSelectAndCast(t *testing.T) {
	k := mustKernel(t, `
__global__ void clampk(float* x, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        float v = x[id];
        x[id] = v > 1.0f ? 1.0f : v;
    }
}`, "clampk")
	xs := []float32{0.5, 2.5, -1, 1}
	mem := NewHostMem()
	mem.Bind(0, NewF32Buffer(xs))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(4),
		Args: []Value{{}, IntV(4)}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	want := []float32{0.5, 1, -1, 1}
	got := mem.Buffer(0).F32()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestRunawayLoopGuard(t *testing.T) {
	k := mustKernel(t, `
__global__ void spin(int* x) {
    while (1) {
        x[0] = x[0] + 1;
    }
}`, "spin")
	mem := NewHostMem()
	mem.Bind(0, NewI32Buffer([]int32{0}))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(1),
		Args: []Value{{}}, Mem: mem, MaxLoopIters: 1000}
	if _, err := ExecBlock(l, 0, 0); err == nil {
		t.Fatal("runaway loop not detected")
	}
	// A loop within the budget is unaffected.
	k2 := mustKernel(t, `
__global__ void count(int* x, int n) {
    for (int i = 0; i < n; i++)
        x[0] = x[0] + 1;
}`, "count")
	mem2 := NewHostMem()
	mem2.Bind(0, NewI32Buffer([]int32{0}))
	l2 := &Launch{Kernel: k2, Grid: Dim1(1), Block: Dim1(1),
		Args: []Value{{}, IntV(500)}, Mem: mem2, MaxLoopIters: 1000}
	if _, err := ExecBlock(l2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := mem2.Buffer(0).I32()[0]; got != 500 {
		t.Errorf("count = %d, want 500", got)
	}
}

func TestTiledTranspose2DSyntax(t *testing.T) {
	// The canonical CUDA tiled transpose, with native 2D shared indexing
	// and character-literal-free source straight from a textbook.
	k := mustKernel(t, `
__global__ void tiled(float* in, float* out, int n) {
    __shared__ float tile[16][16];
    int x = blockIdx.x * 16 + threadIdx.x;
    int y = blockIdx.y * 16 + threadIdx.y;
    tile[threadIdx.y][threadIdx.x] = in[y * n + x];
    __syncthreads();
    int ox = blockIdx.y * 16 + threadIdx.x;
    int oy = blockIdx.x * 16 + threadIdx.y;
    out[oy * n + ox] = tile[threadIdx.x][threadIdx.y];
}`, "tiled")
	const n = 32
	in := make([]float32, n*n)
	for i := range in {
		in[i] = float32(i) * 0.5
	}
	mem := NewHostMem()
	mem.Bind(0, NewF32Buffer(in))
	mem.Bind(1, ZeroBuffer(kir.F32, n*n))
	l := &Launch{Kernel: k,
		Grid:  Dim3{X: n / 16, Y: n / 16},
		Block: Dim3{X: 16, Y: 16},
		Args:  []Value{{}, {}, IntV(n)}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	out := mem.Buffer(1).F32()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if out[r*n+c] != in[c*n+r] {
				t.Fatalf("out[%d][%d] = %g, want %g", r, c, out[r*n+c], in[c*n+r])
			}
		}
	}
}

func TestCharLiteralKernel(t *testing.T) {
	k := mustKernel(t, `
__global__ void count_a(char* text, int* hits, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        hits[id] = text[id] == 'A' ? 1 : 0;
}`, "count_a")
	text := []byte("ABACADABRA")
	mem := NewHostMem()
	mem.Bind(0, NewU8Buffer(text))
	mem.Bind(1, ZeroBuffer(kir.I32, len(text)))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(16),
		Args: []Value{{}, {}, IntV(int64(len(text)))}, Mem: mem}
	if _, err := ExecGrid(l); err != nil {
		t.Fatal(err)
	}
	hits := mem.Buffer(1).I32()
	want := []int32{1, 0, 1, 0, 1, 0, 1, 0, 0, 1}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("hits[%d] = %d, want %d", i, hits[i], want[i])
		}
	}
}

// panicMem panics on every float load and exposes no raw rows.
type panicMem struct{ Memory }

func (panicMem) LoadF32(int, int) float32 { panic("load failed") }

// TestPanicReachesCaller: a panic in a barrier kernel's thread, here while
// the other threads wait at the barrier, surfaces on the goroutine that
// called ExecBlock, where a recover can catch it.
func TestPanicReachesCaller(t *testing.T) {
	k := mustKernel(t, `
__global__ void k(float* x) {
    __shared__ float s[8];
    s[threadIdx.x] = 1.0f;
    __syncthreads();
    x[threadIdx.x] = x[threadIdx.x] + s[0];
}`, "k")
	mem := NewHostMem()
	mem.Bind(0, ZeroBuffer(kir.F32, 8))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(8), Args: []Value{{}}, Mem: panicMem{mem}}
	got := func() (r any) {
		defer func() { r = recover() }()
		ExecBlock(l, 0, 0)
		return nil
	}()
	if got != "load failed" {
		t.Fatalf("recovered %v, want the load's panic", got)
	}
}
