package kir

import (
	"fmt"
	"sync/atomic"
)

// Param describes one kernel parameter.
type Param struct {
	Name    string
	Elem    ScalarType
	Pointer bool
}

func (p Param) String() string {
	if p.Pointer {
		return fmt.Sprintf("%s* %s", p.Elem, p.Name)
	}
	return fmt.Sprintf("%s %s", p.Elem, p.Name)
}

// SharedArray is a __shared__ declaration.  Multi-dimensional arrays are
// stored flattened row-major; Dims keeps the declared shape so indexing
// like tile[y][x] can be lowered to y*Dims[1]+x.
type SharedArray struct {
	Name string
	Elem ScalarType
	Len  int
	Dims []int
}

// Kernel is one __global__ function.
type Kernel struct {
	Name   string
	Params []Param
	Shared []SharedArray
	Body   Block
	// NumSlots is the total number of variable slots (params + locals).
	NumSlots int
	// Source is the original DSL text, retained for diagnostics.
	Source string
	// Program holds the register machine's compiled program for this
	// kernel (a *vm.CompiledKernel), published once by vm.CompileCached,
	// so the program lives exactly as long as the kernel does.
	Program atomic.Pointer[any]
}

// Module is a set of kernels compiled from one source unit, the analogue of
// the GPU LLVM module in the paper's pipeline.
type Module struct {
	Kernels []*Kernel
}

// Kernel returns the kernel with the given name, or nil.
func (m *Module) Kernel(name string) *Kernel {
	for _, k := range m.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// ParamIndex returns the index of the named parameter, or -1.
func (k *Kernel) ParamIndex(name string) int {
	for i, p := range k.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// SharedArrayByName returns the named shared array, or nil.
func (k *Kernel) SharedArrayByName(name string) *SharedArray {
	for i := range k.Shared {
		if k.Shared[i].Name == name {
			return &k.Shared[i]
		}
	}
	return nil
}

// HasSync reports whether the kernel contains a __syncthreads() barrier,
// which makes the interpreter run the block's threads as coroutines that
// suspend at each barrier.
func (k *Kernel) HasSync() bool {
	found := false
	WalkStmts(k.Body, func(s Stmt) {
		if _, ok := s.(*Sync); ok {
			found = true
		}
	})
	return found
}

// GlobalStores returns every store/atomic to global memory in the kernel,
// paired with the guard/loop context needed by the analysis.
func (k *Kernel) GlobalStores() []Stmt {
	var out []Stmt
	WalkStmts(k.Body, func(s Stmt) {
		switch s := s.(type) {
		case *Store:
			if s.Mem.Space == Global {
				out = append(out, s)
			}
		case *AtomicRMW:
			if s.Mem.Space == Global {
				out = append(out, s)
			}
		}
	})
	return out
}
