package vm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/vm"
)

// storeCounter is a Memory that notes whether any element was stored twice.
// It wraps the element accessors only, so the interpreter cannot store
// through raw rows around it.
type storeCounter struct {
	interp.Memory
	stored map[[2]int]bool
	twice  bool
}

func (m *storeCounter) note(param, idx int) {
	key := [2]int{param, idx}
	if m.stored[key] {
		m.twice = true
	}
	m.stored[key] = true
}

func (m *storeCounter) StoreF32(param, idx int, v float32) {
	m.note(param, idx)
	m.Memory.StoreF32(param, idx, v)
}

func (m *storeCounter) StoreI32(param, idx int, v int32) {
	m.note(param, idx)
	m.Memory.StoreI32(param, idx, v)
}

func (m *storeCounter) StoreU8(param, idx int, v byte) {
	m.note(param, idx)
	m.Memory.StoreU8(param, idx, v)
}

// orderFree reports whether no thread of k can observe another: no atomics,
// no shared-memory stores, and no global buffer both loaded and stored.
// The lockstep schedule of such a kernel takes every branch and raises every
// error the thread-serial one does; with no element stored twice it also
// leaves the same memory.
func orderFree(k *kir.Kernel) bool {
	loaded := make([]bool, len(k.Params))
	stored := make([]bool, len(k.Params))
	ok := true
	kir.WalkExprs(k.Body, func(e kir.Expr) {
		if l, isLoad := e.(*kir.Load); isLoad && l.Mem.Space == kir.Global {
			loaded[l.Mem.Param] = true
		}
	})
	kir.WalkStmts(k.Body, func(s kir.Stmt) {
		switch s := s.(type) {
		case *kir.AtomicRMW:
			ok = false
		case *kir.Store:
			if s.Mem.Space == kir.Shared {
				ok = false
			} else {
				stored[s.Mem.Param] = true
			}
		}
	})
	for i := range loaded {
		if loaded[i] && stored[i] {
			ok = false
		}
	}
	return ok
}

// fuzzLaunch binds fuzzLen deterministic elements to every pointer
// parameter of k and gives every scalar a fixed value (ints fuzzLen, so an
// `n` parameter matches the buffers).
func fuzzLaunch(k *kir.Kernel, block int) (*interp.HostMem, *interp.Launch) {
	mem := interp.NewHostMem()
	args := make([]interp.Value, len(k.Params))
	for i, p := range k.Params {
		switch {
		case !p.Pointer && p.Elem == kir.F32:
			args[i] = interp.FloatV(1.75)
		case !p.Pointer:
			args[i] = interp.IntV(fuzzLen)
		case p.Elem == kir.F32:
			v := make([]float32, fuzzLen)
			for j := range v {
				v[j] = float32(j%23)*0.25 - 2
			}
			mem.Bind(i, interp.NewF32Buffer(v))
		case p.Elem == kir.I32:
			v := make([]int32, fuzzLen)
			for j := range v {
				v[j] = int32(j*37%101 - 50)
			}
			mem.Bind(i, interp.NewI32Buffer(v))
		default:
			mem.Bind(i, interp.ZeroBuffer(p.Elem, fuzzLen))
		}
	}
	return mem, &interp.Launch{Kernel: k, Grid: interp.Dim1(2), Block: interp.Dim1(block),
		Args: args, Mem: mem, MaxLoopIters: 512}
}

func memImage(k *kir.Kernel, mem *interp.HostMem) []byte {
	var image []byte
	for i, p := range k.Params {
		if p.Pointer {
			image = append(image, mem.Buffer(i).Data...)
		}
	}
	return image
}

// barrierSeeds are barrier kernels whose threads observe one another, so
// only the thread-serial schedule has one answer: FuzzCompileMatchesInterp
// starts from them (besides testdata/fuzz), and TestBarrierSeedsExecute
// keeps them compared rather than skipped.
var barrierSeeds = []struct {
	name  string
	block byte // the fuzz input byte: block = block%64 + 1 threads
	src   string
}{
	// A thread reads its neighbour's slot before the barrier: the
	// neighbour has not stored it yet, except for the last thread's.
	{"racy-neighbour-read", 31, `
__global__ void fz(float* out, float* a, int n) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = a[t] + 1.0f;
    float v = tile[(t + 1) % blockDim.x];
    __syncthreads();
    out[blockIdx.x * blockDim.x + t] = v + tile[t];
}`},
	// Threads pass zero, one or two barriers: the count-based barrier
	// releases whoever is waiting once the rest have finished.
	{"divergent-barrier-count", 20, `
__global__ void fz(float* out, float* a, int n) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = a[t];
    for (int r = 0; r < t % 3; r++) {
        __syncthreads();
        tile[t] = tile[t] + tile[(t + r + 1) % blockDim.x];
    }
    out[blockIdx.x * blockDim.x + t] = tile[t];
}`},
	{"return-before-barrier", 15, `
__global__ void fz(float* out, float* a, int n) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = a[t] * 2.0f;
    if (t % 4 == 3) return;
    __syncthreads();
    out[blockIdx.x * blockDim.x + t] = tile[(t + 1) % blockDim.x];
}`},
	// Thread 5 fails between two barriers; the others run on, and the
	// block reports its error.
	{"error-mid-phase", 11, `
__global__ void fz(float* out, float* a, int n) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = a[t];
    __syncthreads();
    if (t == 5) { out[t - n] = 1.0f; }
    tile[t] = tile[(t + 1) % blockDim.x] * 0.5f;
    __syncthreads();
    out[blockIdx.x * blockDim.x + t] = tile[t];
}`},
	{"shared-atomics-across-barrier", 23, `
__global__ void fz(int* out, int* a, int n) {
    __shared__ int cnt[4];
    int t = threadIdx.x;
    atomicAdd(&cnt[t % 4], a[t]);
    __syncthreads();
    atomicMax(&cnt[(t + 1) % 4], t * 7 - cnt[t % 4]);
    __syncthreads();
    out[blockIdx.x * blockDim.x + t] = cnt[t % 4];
}`},
}

// FuzzCompileMatchesInterp: mini-CUDA text -> lang.Parse -> vm.Compile ->
// block 1 of a two-block launch, against the interpreter: memory, Work and
// error.  Lane width 1 is the interpreter's own schedule — threads one
// after another, a barrier kernel's resumed in thread order between
// barriers — so every kernel must agree there whatever it does; kernels
// whose threads cannot observe one another (orderFree) must also agree at
// the default lane width, where the block is one lockstep batch, which is
// where a misclassified value shows.
func FuzzCompileMatchesInterp(f *testing.F) {
	for _, sd := range barrierSeeds {
		f.Add(sd.src, sd.block)
	}
	f.Fuzz(func(t *testing.T, src string, blockSize byte) { fuzzCheck(t, src, blockSize) })
}

// fuzzCheck is FuzzCompileMatchesInterp's check of one input.  It reports
// whether the engines were compared: false for text that is not a kernel
// within the limits.
func fuzzCheck(t *testing.T, src string, blockSize byte) bool {
	t.Helper()
	if len(src) > 4096 {
		return false
	}
	mod, err := lang.Parse(src)
	if err != nil || len(mod.Kernels) == 0 {
		return false
	}
	k := mod.Kernels[0]
	shared := 0
	for _, sh := range k.Shared {
		shared += sh.Len
	}
	if shared > 4096 || len(k.Params) > 16 {
		return false
	}
	if _, err := vm.Compile(k); err != nil {
		return false // register file overflow: a limit, not a disagreement
	}
	block := int(blockSize)%64 + 1

	memI, li := fuzzLaunch(k, block)
	sc := &storeCounter{Memory: memI, stored: map[[2]int]bool{}}
	li.Mem = sc
	wi, ei := interp.ExecBlock(li, 1, 0)
	want := memImage(k, memI)

	widths := []int{1}
	if orderFree(k) && (ei != nil || !sc.twice) {
		widths = append(widths, vm.LaneWidth())
	}
	for _, w := range widths {
		memV, lv := fuzzLaunch(k, block)
		var wv interp.Work
		var ev error
		atLaneWidth(w, func() { wv, ev = vm.ExecBlock(lv, 1, 0) })
		if !sameError(ei, ev) {
			t.Fatalf("width %d: error divergence: interp=%v vm=%v", w, ei, ev)
		}
		if wi != wv {
			t.Fatalf("width %d: work divergence:\ninterp %+v\nvm %+v", w, wi, wv)
		}
		if ei == nil && !bytes.Equal(want, memImage(k, memV)) {
			t.Fatalf("width %d: memory divergence", w)
		}
	}
	return true
}

// TestBarrierSeedsExecute: every barrier seed is a kernel the fuzz check
// compares, not one it skips.
func TestBarrierSeedsExecute(t *testing.T) {
	for _, sd := range barrierSeeds {
		t.Run(sd.name, func(t *testing.T) {
			if !fuzzCheck(t, sd.src, sd.block) {
				t.Fatal("seed skipped: not compared")
			}
		})
	}
}

// TestFuzzSeedCorpus keeps the checked-in seed corpus equal to the named
// shapes: one file per shape, each at a block size that leaves a tail batch.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCompileMatchesInterp")
	for _, sh := range uniformShapes {
		want := "go test fuzz v1\nstring(" + strconv.Quote(sh.src) + ")\nbyte('1')\n"
		got, err := os.ReadFile(filepath.Join(dir, sh.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s is missing or stale (%v); it should hold:\n%s", sh.name, err, want)
		}
	}
}
