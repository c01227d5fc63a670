package core

import (
	"bytes"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
)

func TestPartitionBlocks(t *testing.T) {
	cases := []struct {
		total, tail, n int
		strategy       RemainderStrategy
		wantCounts     []int
		wantDistEnd    int
		wantBalanced   bool
	}{
		// The paper's Figure 5 example: 5 blocks, tail, 2 nodes.
		{5, 1, 2, RemainderCallback, []int{2, 2}, 4, true},
		// Kmeans at 16/32 nodes (paper §7.2).
		{313, 1, 16, RemainderCallback, []int{19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19}, 304, true},
		// Imbalanced: 312 blocks over 16 nodes -> 24 nodes... 312 = 16*19 + 8.
		{313, 1, 16, RemainderImbalanced, nil, 312, false},
		// Exact fit stays balanced under both strategies.
		{8, 0, 4, RemainderImbalanced, []int{2, 2, 2, 2}, 8, true},
		{8, 0, 4, RemainderCallback, []int{2, 2, 2, 2}, 8, true},
	}
	for i, tc := range cases {
		got := partitionBlocks(tc.total, tc.tail, tc.n, tc.strategy)
		if got.distEnd != tc.wantDistEnd {
			t.Errorf("case %d: distEnd = %d, want %d", i, got.distEnd, tc.wantDistEnd)
		}
		balanced := true
		for _, c := range got.counts {
			balanced = balanced && c == got.counts[0]
		}
		if balanced != tc.wantBalanced {
			t.Errorf("case %d: equal counts = %v, want %v", i, balanced, tc.wantBalanced)
		}
		if tc.wantCounts != nil {
			for r, w := range tc.wantCounts {
				if got.counts[r] != w {
					t.Errorf("case %d: counts[%d] = %d, want %d", i, r, got.counts[r], w)
				}
			}
		}
		// Invariants: contiguous coverage of [0, distEnd).
		off := 0
		for r := 0; r < tc.n; r++ {
			if got.starts[r] != off {
				t.Errorf("case %d: starts[%d] = %d, want %d", i, r, got.starts[r], off)
			}
			off += got.counts[r]
		}
		if off != got.distEnd {
			t.Errorf("case %d: counts sum to %d, distEnd %d", i, off, got.distEnd)
		}
	}
}

func TestImbalancedStrategyCorrectness(t *testing.T) {
	// 13 blocks over 4 nodes: callback strategy defers 1 block (13 = 4*3+1),
	// imbalanced gives the first node 4 blocks.  Outputs must be identical.
	prog := MustCompile(`
__global__ void fill(float* out) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    out[id] = (float)(id * 3);
}`)
	run := func(strategy RemainderStrategy) ([]byte, *Stats) {
		c := newCluster(t, 4)
		out := c.Alloc(kir.F32, 13*64)
		sess := NewSession(c, prog)
		sess.Verify = true
		stats, err := sess.Launch(LaunchSpec{
			Kernel:    "fill",
			Grid:      interp.Dim1(13),
			Block:     interp.Dim1(64),
			Args:      []Arg{BufArg(out)},
			Remainder: strategy,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := make([]byte, out.Bytes())
		copy(snap, c.Region(0, out))
		return snap, stats
	}
	cbOut, cbStats := run(RemainderCallback)
	imOut, imStats := run(RemainderImbalanced)
	if !bytes.Equal(cbOut, imOut) {
		t.Fatal("strategies produced different outputs")
	}
	if cbStats.CallbackBlocks != 1 {
		t.Errorf("callback strategy deferred %d blocks, want 1", cbStats.CallbackBlocks)
	}
	if imStats.CallbackBlocks != 0 {
		t.Errorf("imbalanced strategy deferred %d blocks, want 0", imStats.CallbackBlocks)
	}
	if imStats.BlocksPerNode != 4 {
		t.Errorf("imbalanced first node ran %d blocks, want 4", imStats.BlocksPerNode)
	}
}

func TestImbalancedStrategyWithTail(t *testing.T) {
	// Tail-divergent kernel: the tail block stays a callback under both
	// strategies; the rest distributes fully under the imbalanced one.
	prog := MustCompile(vecCopySrc)
	run := func(strategy RemainderStrategy) ([]byte, *Stats) {
		c := newCluster(t, 3)
		const N = 1200
		src := c.Alloc(kir.U8, N)
		dest := c.Alloc(kir.U8, N)
		data := make([]byte, N)
		for i := range data {
			data[i] = byte(i * 7)
		}
		c.WriteAll(src, data)
		sess := NewSession(c, prog)
		sess.Verify = true
		stats, err := sess.Launch(LaunchSpec{
			Kernel:    "vec_copy",
			Grid:      interp.Dim1(5),
			Block:     interp.Dim1(256),
			Args:      []Arg{BufArg(src), BufArg(dest), IntArg(N)},
			Remainder: strategy,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := make([]byte, N)
		copy(snap, c.Region(1, dest))
		return snap, stats
	}
	cbOut, cbStats := run(RemainderCallback)
	imOut, imStats := run(RemainderImbalanced)
	if !bytes.Equal(cbOut, imOut) {
		t.Fatal("strategies produced different outputs")
	}
	// 4 non-tail blocks over 3 nodes: callback defers 2 (tail + remainder),
	// imbalanced defers only the tail.
	if cbStats.CallbackBlocks != 2 || imStats.CallbackBlocks != 1 {
		t.Errorf("callbacks = %d/%d, want 2/1", cbStats.CallbackBlocks, imStats.CallbackBlocks)
	}
}

// TestImbalancedFixesKmeansAnomaly shows the design trade-off the paper's
// callback placement makes: at 32 nodes the Kmeans remainder (25 callback
// blocks) costs an extra wave, which the imbalanced strategy avoids.
func TestImbalancedFixesKmeansAnomaly(t *testing.T) {
	prog := MustCompile(`
__global__ void k(float* out, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) out[id] = 1.0f;
}`)
	err := prog.RegisterNative("k", Native{
		RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
			n := int(args[1].I)
			for tx := 0; tx < block.X; tx++ {
				if id := bx*block.X + tx; id < n {
					mem.StoreF32(0, id, 1)
				}
			}
			return nil
		},
		BlockWork: func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			return machine.BlockWork{SerialFlops: 5e5, Bytes: float64(block.X) * 4}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(strategy RemainderStrategy) float64 {
		c := newCluster(t, 32)
		out := c.Alloc(kir.F32, 313*256)
		sess := NewSession(c, prog)
		st, err := sess.Estimate(LaunchSpec{
			Kernel:    "k",
			Grid:      interp.Dim1(313),
			Block:     interp.Dim1(256),
			Args:      []Arg{BufArg(out), IntArg(313*256 - 10)},
			Remainder: strategy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.TotalSec
	}
	cb := estimate(RemainderCallback)
	im := estimate(RemainderImbalanced)
	if im >= cb {
		t.Errorf("imbalanced (%g) should beat callback (%g) for the 313-block/32-node case", im, cb)
	}
}
