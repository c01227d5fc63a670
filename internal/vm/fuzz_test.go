package vm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/vm"
)

// storeCounter is a Memory that notes whether any element was stored twice.
// The interpreter runs a barrier kernel's threads as goroutines, hence the
// lock.
type storeCounter struct {
	*interp.HostMem
	mu     sync.Mutex
	stored map[[2]int]bool
	twice  bool
}

func (m *storeCounter) note(param, idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{param, idx}
	if m.stored[key] {
		m.twice = true
	}
	m.stored[key] = true
}

func (m *storeCounter) StoreF32(param, idx int, v float32) {
	m.note(param, idx)
	m.HostMem.StoreF32(param, idx, v)
}

func (m *storeCounter) StoreI32(param, idx int, v int32) {
	m.note(param, idx)
	m.HostMem.StoreI32(param, idx, v)
}

func (m *storeCounter) StoreU8(param, idx int, v byte) {
	m.note(param, idx)
	m.HostMem.StoreU8(param, idx, v)
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

// FuzzCompileMatchesInterp: mini-CUDA text -> lang.Parse -> vm.Compile ->
// block 1 of a two-block launch, against the interpreter: memory, Work and
// error.  Lane width 1 is the interpreter's own thread order, so a
// barrier-free kernel must agree there whatever it does; kernels whose
// threads cannot observe one another (orderFree) must also agree at the
// default lane width, where the block is one lockstep batch, which is where
// a misclassified value shows.  A barrier kernel that is not orderFree is
// skipped: the interpreter runs its threads as goroutines, so a mutated-in
// race has no one answer.
func FuzzCompileMatchesInterp(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, blockSize byte) {
		if len(src) > 4096 {
			return
		}
		mod, err := lang.Parse(src)
		if err != nil || len(mod.Kernels) == 0 {
			return
		}
		k := mod.Kernels[0]
		shared := 0
		for _, sh := range k.Shared {
			shared += sh.Len
		}
		if shared > 4096 || len(k.Params) > 16 {
			return
		}
		if _, err := vm.Compile(k); err != nil {
			return // register file overflow: a limit, not a disagreement
		}
		free := orderFree(k)
		if k.HasSync() && !free {
			return
		}
		block := int(blockSize)%64 + 1

		memI, li := fuzzLaunch(k, block)
		sc := &storeCounter{HostMem: memI, stored: map[[2]int]bool{}}
		li.Mem = sc
		wi, ei := interp.ExecBlock(li, 1, 0)
		want := memImage(k, memI)

		widths := []int{1}
		if free && (ei != nil || !sc.twice) {
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
	})
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
