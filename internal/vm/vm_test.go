package vm_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/vm"
)

func compileKernel(t *testing.T, src string) *kir.Kernel {
	t.Helper()
	mod, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if len(mod.Kernels) == 0 {
		t.Fatalf("no kernels in source")
	}
	return mod.Kernels[0]
}

func TestVecAdd(t *testing.T) {
	k := compileKernel(t, `
__global__ void vecadd(float* out, float* a, float* b, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        out[id] = a[id] + b[id];
}
`)
	n := 100
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i) * 0.5
		bv[i] = float32(n - i)
	}
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.F32, n))
	mem.Bind(1, interp.NewF32Buffer(av))
	mem.Bind(2, interp.NewF32Buffer(bv))
	l := &interp.Launch{
		Kernel: k,
		Grid:   interp.Dim1(4),
		Block:  interp.Dim1(32),
		Args:   make([]interp.Value, 3+1),
		Mem:    mem,
	}
	l.Args[3] = interp.IntV(int64(n))
	r, err := vm.NewRunner(l)
	if err != nil {
		t.Fatal(err)
	}
	var w interp.Work
	for bx := 0; bx < 4; bx++ {
		bw, err := r.ExecBlock(bx, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(bw)
	}
	got := mem.Buffer(0).F32()
	for i := 0; i < n; i++ {
		want := av[i] + bv[i]
		if got[i] != want {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], want)
		}
	}
	// 128 threads: each does one comparison (IntOps from compare is... the
	// compare id<n is int → IntOps), plus the add for the first n.
	if w.Flops != int64(n) {
		t.Errorf("Flops = %d, want %d", w.Flops, n)
	}
	if w.GlobalStoreBytes != int64(4*n) {
		t.Errorf("GlobalStoreBytes = %d, want %d", w.GlobalStoreBytes, 4*n)
	}
}

func TestLoopControlFlow(t *testing.T) {
	k := compileKernel(t, `
__global__ void loops(int* out) {
    int id = threadIdx.x;
    int s = 0;
    for (int i = 0; i < 10; i++) {
        if (i == 7) break;
        if (i % 2 == 1) continue;
        s = s + i;
    }
    int j = 0;
    while (j < 3) {
        s = s + 100;
        j = j + 1;
    }
    out[id] = s;
}
`)
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.I32, 4))
	l := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(4),
		Args: make([]interp.Value, 1), Mem: mem}
	if _, err := vm.ExecBlock(l, 0, 0); err != nil {
		t.Fatal(err)
	}
	// 0+2+4+6 = 12, plus 3*100.
	for i, v := range mem.Buffer(0).I32() {
		if v != 312 {
			t.Fatalf("out[%d] = %d, want 312", i, v)
		}
	}
}

func TestSelectAndIntrinsics(t *testing.T) {
	k := compileKernel(t, `
__global__ void sel(float* out, float s) {
    int id = threadIdx.x;
    float v = id % 2 == 0 ? sqrtf((float)id + s) : fmaxf((float)id, 2.5f);
    out[id] = v;
}
`)
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.F32, 8))
	args := make([]interp.Value, 2)
	args[1] = interp.FloatV(2.0)
	l := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(8), Args: args, Mem: mem}
	if _, err := vm.ExecBlock(l, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := mem.Buffer(0).F32()
	for i := 0; i < 8; i++ {
		var want float32
		if i%2 == 0 {
			want = float32(math.Sqrt(float64(float32(i) + 2.0)))
		} else {
			want = float32(math.Max(float64(i), 2.5))
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], want)
		}
	}
}

func TestBarrierReduction(t *testing.T) {
	k := compileKernel(t, `
__global__ void reduce(float* out, float* in) {
    __shared__ float tile[64];
    int tid = threadIdx.x;
    tile[tid] = in[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int stride = 32; stride > 0; stride = stride / 2) {
        if (tid < stride)
            tile[tid] = tile[tid] + tile[tid + stride];
        __syncthreads();
    }
    if (tid == 0)
        out[blockIdx.x] = tile[0];
}
`)
	if !k.HasSync() {
		t.Fatal("kernel should have sync")
	}
	in := make([]float32, 128)
	for i := range in {
		in[i] = float32(i%13) * 0.25
	}
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.F32, 2))
	mem.Bind(1, interp.NewF32Buffer(in))
	l := &interp.Launch{Kernel: k, Grid: interp.Dim1(2), Block: interp.Dim1(64),
		Args: make([]interp.Value, 2), Mem: mem}
	r, err := vm.NewRunner(l)
	if err != nil {
		t.Fatal(err)
	}
	for bx := 0; bx < 2; bx++ {
		if _, err := r.ExecBlock(bx, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := mem.Buffer(0).F32()
	for b := 0; b < 2; b++ {
		var want float32
		// Match the reduction's pairwise summation order exactly.
		tile := make([]float32, 64)
		copy(tile, in[b*64:])
		for stride := 32; stride > 0; stride /= 2 {
			for i := 0; i < stride; i++ {
				tile[i] += tile[i+stride]
			}
		}
		want = tile[0]
		if got[b] != want {
			t.Fatalf("out[%d] = %g, want %g", b, got[b], want)
		}
	}
}

func TestEarlyReturnInBarrierKernel(t *testing.T) {
	// Thread 0 returns before the barrier; the interpreter's early-leave
	// semantics must let the rest of the block synchronize.
	k := compileKernel(t, `
__global__ void early(int* out) {
    __shared__ int flags[32];
    int tid = threadIdx.x;
    if (tid == 0) return;
    flags[tid] = tid;
    __syncthreads();
    out[tid] = flags[(tid + 1) % 32 == 0 ? 1 : (tid + 1) % 32];
}
`)
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.I32, 32))
	l := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(32),
		Args: make([]interp.Value, 1), Mem: mem}
	if _, err := vm.ExecBlock(l, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLoopBudget(t *testing.T) {
	k := compileKernel(t, `
__global__ void runaway(float* out) {
    float acc = 0.0f;
    while (1 == 1) {
        acc = acc + 1.0f;
    }
    out[0] = acc;
}
`)
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.F32, 1))
	l := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(1),
		Args: make([]interp.Value, 1), Mem: mem, MaxLoopIters: 1000}
	w, err := vm.ExecBlock(l, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "loop iterations") {
		t.Fatalf("want runaway-loop error, got %v", err)
	}
	if w != (interp.Work{}) {
		t.Errorf("work must be zero on error, got %+v", w)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-zero", `
__global__ void k(int* out, int n) {
    out[0] = 1 / (n - n);
}`, "division by zero"},
		{"oob-store", `
__global__ void k(float* out, int n) {
    out[n + 1000000] = 1.0f;
}`, "out of bounds"},
		{"oob-shared", `
__global__ void k(int* out, int n) {
    __shared__ int tile[8];
    tile[n + 100] = 1;
    out[0] = tile[0];
}`, "out of bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := compileKernel(t, tc.src)
			mem := interp.NewHostMem()
			mem.Bind(0, interp.ZeroBuffer(kir.F32, 4))
			args := make([]interp.Value, len(k.Params))
			if len(args) > 1 {
				args[1] = interp.IntV(5)
			}
			l := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(1),
				Args: args, Mem: mem}
			_, err := vm.ExecBlock(l, 0, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
}

func TestCompileCachedReuses(t *testing.T) {
	k := compileKernel(t, `
__global__ void cached(float* out) { out[threadIdx.x] = 1.0f; }
`)
	p1, err := vm.CompileCached(k)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := vm.CompileCached(k)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("CompileCached should return the same program for one kernel")
	}
	if p1.NumInstructions() == 0 {
		t.Error("empty program")
	}
}

func TestLaunchValidation(t *testing.T) {
	k := compileKernel(t, `
__global__ void v(float* out) { out[0] = 1.0f; }
`)
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.F32, 1))
	if _, err := vm.NewRunner(&interp.Launch{Kernel: k, Grid: interp.Dim1(1),
		Block: interp.Dim1(1), Mem: mem}); err == nil {
		t.Error("missing args must fail validation")
	}
	if _, err := vm.NewRunner(&interp.Launch{Kernel: k, Grid: interp.Dim1(0),
		Block: interp.Dim1(1), Args: make([]interp.Value, 1), Mem: mem}); err == nil {
		t.Error("empty grid must fail validation")
	}
	if _, err := vm.NewRunner(&interp.Launch{Kernel: k, Grid: interp.Dim1(1),
		Block: interp.Dim1(1), Args: make([]interp.Value, 1)}); err == nil {
		t.Error("nil memory must fail validation")
	}
}

// elemOnly hides everything but interp.Memory's element accessors —
// RawBytes and AtomicShard in particular — the way a memory that intercepts
// accesses does.
type elemOnly struct{ interp.Memory }

// TestRunnerRejectsElementOnlyMemory: the register machine indexes byte
// rows and locks atomic shards directly, so a memory lacking either is a
// launch error — from NewRunner and from the one-shot ExecBlock, never a
// panic in the first load.
func TestRunnerRejectsElementOnlyMemory(t *testing.T) {
	k := compileKernel(t, `
__global__ void v(float* out) { out[threadIdx.x] = 1.0f; }
`)
	mem := interp.NewHostMem()
	mem.Bind(0, interp.ZeroBuffer(kir.F32, 4))
	for name, m := range map[string]interp.Memory{
		"element-only": elemOnly{mem},
		"no shards": struct {
			interp.Memory
			interp.RawMemory
		}{mem, mem},
	} {
		l := &interp.Launch{Kernel: k, Grid: interp.Dim1(1), Block: interp.Dim1(4),
			Args: make([]interp.Value, 1), Mem: m}
		if r, err := vm.NewRunner(l); err == nil || r != nil {
			t.Errorf("%s: NewRunner = %v, %v; want an error", name, r, err)
		} else if !strings.Contains(err.Error(), "no byte rows or atomic shards") {
			t.Errorf("%s: NewRunner error %q does not name the missing capability", name, err)
		}
		if w, err := vm.ExecBlock(l, 0, 0); err == nil || w != (interp.Work{}) {
			t.Errorf("%s: ExecBlock = %+v, %v; want zero work and an error", name, w, err)
		}
	}
	if b := mem.Buffer(0).Data; !bytes.Equal(b, make([]byte, len(b))) {
		t.Error("a rejected launch wrote memory")
	}
}
