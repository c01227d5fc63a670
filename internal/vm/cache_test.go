package vm_test

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"cucc/internal/vm"
)

// TestCompiledProgramDiesWithKernel: a kernel compiles once (one miss, then
// one hit on the same program), and nothing process-wide keeps either the
// kernel or its program alive once the caller drops the kernel.
func TestCompiledProgramDiesWithKernel(t *testing.T) {
	k := compileKernel(t, `
__global__ void dies(float* out) { out[threadIdx.x] = 3.0f; }
`)
	before := vm.ReadCacheStats()
	p1, err := vm.CompileCached(k)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := vm.CompileCached(k)
	if err != nil {
		t.Fatal(err)
	}
	after := vm.ReadCacheStats()
	if p1 != p2 {
		t.Error("CompileCached returned two programs for one kernel")
	}
	if m, h := after.Misses-before.Misses, after.Hits-before.Hits; m != 1 || h != 1 {
		t.Errorf("misses %d hits %d, want 1 and 1", m, h)
	}

	wk, wp := weak.Make(k), weak.Make(p1)
	k, p1, p2 = nil, nil, nil
	runtime.GC()
	if wk.Value() != nil || wp.Value() != nil {
		t.Fatal("a dropped kernel or its program is still reachable")
	}
}

// TestCompileCachedConcurrent: racing first compiles of one kernel all
// return the one program that was published.
func TestCompileCachedConcurrent(t *testing.T) {
	k := compileKernel(t, `
__global__ void racy(float* out) { out[threadIdx.x] = 5.0f; }
`)
	const racers = 8
	progs := make([]*vm.CompiledKernel, racers)
	var wg sync.WaitGroup
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := vm.CompileCached(k)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("racer %d got program %p, racer 0 got %p", i, p, progs[0])
		}
	}
}
