package interp

import (
	"slices"
	"testing"

	"cucc/internal/kir"
)

// TestErrorSemantics pins what a failing block reports and leaves behind:
// the first error in evaluation order with its exact text, zero Work, and
// exactly the stores made before the failing statement.  Every kernel runs
// one block over x = {1, 2, 3, 4} and out = eight zeros (sixteen for the
// barrier row); z is the scalar argument.
func TestErrorSemantics(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		block   int
		z       int64
		err     string
		work    Work    // the Work of a block that does not fail
		wantOut []int32 // nil: out stays all zero
	}{{
		name: "left load fails before right division",
		src: `__global__ void k(int* x, int* out, int z) {
    out[0] = x[threadIdx.x + 100] + 1 / z;
}`,
		block: 1,
		err:   "interp: k: global load out of bounds: x[100] (len 4)",
	}, {
		name: "if condition fails: neither branch runs",
		src: `__global__ void k(int* x, int* out, int z) {
    out[1] = 5;
    if (x[threadIdx.x + 100] > 0) out[0] = 1; else out[0] = 2;
    out[2] = 3;
}`,
		block:   1,
		err:     "interp: k: global load out of bounds: x[100] (len 4)",
		wantOut: []int32{0, 5, 0, 0, 0, 0, 0, 0},
	}, {
		name: "loop condition fails: body does not run",
		src: `__global__ void k(int* x, int* out, int z) {
    for (int j = 0; j < x[j + 100]; j++) out[j] = 7;
    out[3] = 9;
}`,
		block: 1,
		err:   "interp: k: global load out of bounds: x[100] (len 4)",
	}, {
		name: "false && skips the right side",
		src: `__global__ void k(int* x, int* out, int z) {
    if (threadIdx.x > 5 && x[threadIdx.x + 100] > 0) out[0] = 1;
    out[1] = 2;
}`,
		block:   1,
		work:    Work{IntOps: 1, GlobalStoreBytes: 4},
		wantOut: []int32{0, 2, 0, 0, 0, 0, 0, 0},
	}, {
		name: "select condition fails",
		src: `__global__ void k(int* x, int* out, int z) {
    out[0] = x[z + 100] > 0 ? 1 : 2;
}`,
		block: 1,
		err:   "interp: k: global load out of bounds: x[100] (len 4)",
	}, {
		name: "failing statement before a store",
		src: `__global__ void k(int* x, int* out, int z) {
    out[0] = 1;
    out[1] = x[0] / z;
    out[2] = 3;
}`,
		block:   1,
		err:     "interp: k: integer division by zero",
		wantOut: []int32{1, 0, 0, 0, 0, 0, 0, 0},
	}, {
		name: "atomic out of bounds",
		src: `__global__ void k(int* x, int* out, int z) {
    out[0] = 1;
    atomicAdd(&out[threadIdx.x + 100], 1);
    out[1] = 1;
}`,
		block:   1,
		err:     "interp: k: global load out of bounds: out[100] (len 8)",
		wantOut: []int32{1, 0, 0, 0, 0, 0, 0, 0},
	}, {
		name: "barrier kernel: thread 3 fails mid-phase",
		src: `__global__ void k(int* x, int* out, int z) {
    __shared__ int s[8];
    s[threadIdx.x] = threadIdx.x;
    __syncthreads();
    out[threadIdx.x] = s[7 - threadIdx.x];
    if (threadIdx.x == 3) out[threadIdx.x] = x[100];
    __syncthreads();
    out[threadIdx.x + 8] = 1;
}`,
		block:   8,
		err:     "interp: phased execution: interp: k: global load out of bounds: x[100] (len 4)",
		wantOut: []int32{7, 6, 5, 4, 3, 2, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := mustKernel(t, tc.src, "k")
			n := 8
			if tc.block > 4 {
				n = 16
			}
			mem := NewHostMem()
			mem.Bind(0, NewI32Buffer([]int32{1, 2, 3, 4}))
			mem.Bind(1, ZeroBuffer(kir.I32, n))
			l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(tc.block),
				Args: []Value{{}, {}, IntV(tc.z)}, Mem: mem}
			w, err := ExecBlock(l, 0, 0)
			checkFailure(t, w, err, tc.work, tc.err)
			want := tc.wantOut
			if want == nil {
				want = make([]int32, n)
			}
			if got := mem.Buffer(1).I32(); !slices.Equal(got, want) {
				t.Errorf("out = %v, want %v", got, want)
			}
			if got := mem.Buffer(0).I32(); !slices.Equal(got, []int32{1, 2, 3, 4}) {
				t.Errorf("x = %v, want it unchanged", got)
			}
		})
	}
}

// TestBadLoadType: a load of a type no buffer stores (hand-built IR; the
// front end cannot write one) fails, but an out-of-bounds index still
// reports the bounds error first.
func TestBadLoadType(t *testing.T) {
	for _, tc := range []struct {
		idx int64
		err string
	}{
		{1, "interp: bad load type bool"},
		{100, "interp: k: global load out of bounds: x[100] (len 4)"},
	} {
		x := kir.MemRef{Space: kir.Global, Param: 0, Name: "x"}
		k := &kir.Kernel{
			Name:     "k",
			Params:   []kir.Param{{Name: "x", Elem: kir.F32, Pointer: true}},
			NumSlots: 1,
			Body: kir.Block{&kir.Store{Mem: x, Index: &kir.IntLit{},
				Value: &kir.Load{Mem: x, Index: &kir.IntLit{Val: tc.idx}, T: kir.Bool}}},
		}
		mem := NewHostMem()
		mem.Bind(0, NewF32Buffer([]float32{1, 2, 3, 4}))
		l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(1), Args: []Value{{}}, Mem: mem}
		w, err := ExecBlock(l, 0, 0)
		checkFailure(t, w, err, Work{}, tc.err)
		if got := mem.Buffer(0).F32(); !slices.Equal(got, []float32{1, 2, 3, 4}) {
			t.Errorf("index %d: x = %v, want it unchanged", tc.idx, got)
		}
	}
}

// checkFailure checks a block's result: the exact error text (empty: no
// error) and the Work, which must be zero when the block fails.
func checkFailure(t *testing.T, w Work, err error, wantWork Work, wantErr string) {
	t.Helper()
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("unexpected error: %v", err)
	case wantErr != "" && (err == nil || err.Error() != wantErr):
		t.Fatalf("error = %v, want %q", err, wantErr)
	case wantErr != "":
		wantWork = Work{}
	}
	if w != wantWork {
		t.Errorf("work = %+v, want %+v", w, wantWork)
	}
}
