package core

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/trace"
)

// The worker-pool tests: executing a launch with a wide intra-node pool must
// produce byte-identical node memories, identical measured work, and
// identical simulated-time statistics to sequential execution, across the
// interpreter and native backends, including kernels with global atomics
// (cross-block races resolved by the sharded locks) and __syncthreads.

const workerScaleSrc = `
__global__ void scale(float* src, float* dst, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        dst[id] = src[id] * 3.0f + 1.0f;
}
`

const workerHistAtomicSrc = `
__global__ void hist_atomic(char* data, int* bins, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        int v = data[id];
        atomicAdd(&bins[v % 61], 1);
    }
}
`

const workerHistSharedSrc = `
__global__ void hist_shared(char* data, int* partial, int n, int bins) {
    __shared__ int sh[64];
    for (int b = threadIdx.x; b < bins; b = b + blockDim.x)
        sh[b] = 0;
    __syncthreads();
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        atomicAdd(&sh[data[id] % 61], 1);
    __syncthreads();
    for (int b = threadIdx.x; b < bins; b = b + blockDim.x)
        partial[blockIdx.x * bins + b] = sh[b];
}
`

// workerRun is the outcome of one launch: the stats plus every node's copy
// of every bound buffer.
type workerRun struct {
	stats *Stats
	mems  [][][]byte // [buffer][rank] -> bytes
}

// workerCase is one kernel in the equivalence table.
type workerCase struct {
	name   string
	prog   func(t *testing.T) *Program
	launch func(c *cluster.Cluster) (LaunchSpec, []cluster.Buffer)
}

func workerCases() []workerCase {
	const n = 13*64 - 5 // 13 blocks of 64 threads, tail-divergent
	return []workerCase{
		{
			name: "scale-interp",
			prog: func(t *testing.T) *Program { return MustCompile(workerScaleSrc) },
			launch: func(c *cluster.Cluster) (LaunchSpec, []cluster.Buffer) {
				src := c.Alloc(kir.F32, 13*64)
				dst := c.Alloc(kir.F32, 13*64)
				vals := make([]float32, 13*64)
				for i := range vals {
					vals[i] = float32(i%97) * 0.5
				}
				if err := c.WriteAllF32(src, vals); err != nil {
					panic(err)
				}
				return LaunchSpec{
					Kernel: "scale",
					Grid:   interp.Dim1(13),
					Block:  interp.Dim1(64),
					Args:   []Arg{BufArg(src), BufArg(dst), IntArg(n)},
				}, []cluster.Buffer{src, dst}
			},
		},
		{
			name: "scale-native",
			prog: func(t *testing.T) *Program {
				prog := MustCompile(workerScaleSrc)
				if err := prog.RegisterNative("scale", Native{
					RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
						nn := int(args[2].I)
						for tx := 0; tx < block.X; tx++ {
							id := block.X*bx + tx
							if id < nn {
								mem.StoreF32(1, id, mem.LoadF32(0, id)*3+1)
							}
						}
						return nil
					},
					BlockWork: func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
						t := float64(block.X)
						return machine.BlockWork{VecFlops: 2 * t, IntOps: 3 * t, Bytes: 8 * t}
					},
				}); err != nil {
					t.Fatal(err)
				}
				return prog
			},
			launch: func(c *cluster.Cluster) (LaunchSpec, []cluster.Buffer) {
				src := c.Alloc(kir.F32, 13*64)
				dst := c.Alloc(kir.F32, 13*64)
				vals := make([]float32, 13*64)
				for i := range vals {
					vals[i] = float32(i%89) * 0.25
				}
				if err := c.WriteAllF32(src, vals); err != nil {
					panic(err)
				}
				return LaunchSpec{
					Kernel: "scale",
					Grid:   interp.Dim1(13),
					Block:  interp.Dim1(64),
					Args:   []Arg{BufArg(src), BufArg(dst), IntArg(n)},
				}, []cluster.Buffer{src, dst}
			},
		},
		{
			name: "hist-global-atomics",
			prog: func(t *testing.T) *Program { return MustCompile(workerHistAtomicSrc) },
			launch: func(c *cluster.Cluster) (LaunchSpec, []cluster.Buffer) {
				const count = 11 * 64
				data := c.Alloc(kir.U8, count)
				bins := c.Alloc(kir.I32, 61)
				raw := make([]byte, count)
				for i := range raw {
					raw[i] = byte(i*31 + 5)
				}
				if err := c.WriteAll(data, raw); err != nil {
					panic(err)
				}
				return LaunchSpec{
					Kernel: "hist_atomic",
					Grid:   interp.Dim1(11),
					Block:  interp.Dim1(64),
					Args:   []Arg{BufArg(data), BufArg(bins), IntArg(count)},
				}, []cluster.Buffer{data, bins}
			},
		},
		{
			name: "hist-shared-syncthreads",
			prog: func(t *testing.T) *Program { return MustCompile(workerHistSharedSrc) },
			launch: func(c *cluster.Cluster) (LaunchSpec, []cluster.Buffer) {
				const blocks, bs, nbins = 9, 64, 61
				const count = blocks * bs
				data := c.Alloc(kir.U8, count)
				partial := c.Alloc(kir.I32, blocks*nbins)
				raw := make([]byte, count)
				for i := range raw {
					raw[i] = byte(i*17 + 3)
				}
				if err := c.WriteAll(data, raw); err != nil {
					panic(err)
				}
				return LaunchSpec{
					Kernel: "hist_shared",
					Grid:   interp.Dim1(blocks),
					Block:  interp.Dim1(bs),
					Args:   []Arg{BufArg(data), BufArg(partial), IntArg(count), IntArg(nbins)},
				}, []cluster.Buffer{data, partial}
			},
		},
	}
}

// runWorkerCase executes one case on a fresh cluster with the given pool
// width and snapshots the stats and every node's buffers.
func runWorkerCase(t *testing.T, tc workerCase, nodes, workers int, remainder RemainderStrategy) workerRun {
	t.Helper()
	prog := tc.prog(t)
	c := newCluster(t, nodes)
	spec, bufs := tc.launch(c)
	spec.Remainder = remainder
	sess := NewSession(c, prog)
	sess.Host.Workers = workers
	sess.Verify = true
	stats, err := sess.Launch(spec)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
	}
	run := workerRun{stats: stats}
	for _, b := range bufs {
		snap := make([][]byte, nodes)
		for r := 0; r < nodes; r++ {
			snap[r] = append([]byte(nil), c.Region(r, b)...)
		}
		run.mems = append(run.mems, snap)
	}
	return run
}

// TestWorkerPoolEquivalence: for every kernel class and cluster size, a wide
// worker pool must match sequential execution bit for bit — node memories,
// measured per-block work, and every simulated-time figure.
func TestWorkerPoolEquivalence(t *testing.T) {
	for _, tc := range workerCases() {
		for _, nodes := range []int{1, 3} {
			for _, remainder := range []RemainderStrategy{RemainderCallback, RemainderImbalanced} {
				name := tc.name
				if remainder == RemainderImbalanced {
					name += "-imbalanced"
				}
				t.Run(name, func(t *testing.T) {
					seq := runWorkerCase(t, tc, nodes, 1, remainder)
					par := runWorkerCase(t, tc, nodes, 4, remainder)
					if !statsEqualIgnoringSlices(seq.stats, par.stats) {
						t.Errorf("nodes=%d: stats diverge:\n  w=1: %+v\n  w=4: %+v", nodes, seq.stats, par.stats)
					}
					if !intsEqual(seq.stats.BlocksByNode, par.stats.BlocksByNode) {
						t.Errorf("nodes=%d: BlocksByNode %v vs %v", nodes, seq.stats.BlocksByNode, par.stats.BlocksByNode)
					}
					if seq.stats.Work != par.stats.Work {
						t.Errorf("nodes=%d: per-block work diverges: %+v vs %+v", nodes, seq.stats.Work, par.stats.Work)
					}
					for bi := range seq.mems {
						for r := range seq.mems[bi] {
							if !bytes.Equal(seq.mems[bi][r], par.mems[bi][r]) {
								t.Errorf("nodes=%d: buffer %d differs on rank %d between w=1 and w=4", nodes, bi, r)
							}
						}
					}
				})
			}
		}
	}
}

// statsEqualIgnoringSlices compares two Stats field by field, skipping the
// per-rank slice, which intsEqual covers separately.
func statsEqualIgnoringSlices(a, b *Stats) bool {
	return a.Distributed == b.Distributed &&
		a.TailDivergent == b.TailDivergent &&
		a.BlocksPerNode == b.BlocksPerNode &&
		a.CallbackBlocks == b.CallbackBlocks &&
		a.Phase1Sec == b.Phase1Sec &&
		a.CommSec == b.CommSec &&
		a.CallbackSec == b.CallbackSec &&
		a.TotalSec == b.TotalSec &&
		a.CommBytesPerNode == b.CommBytesPerNode &&
		a.CommMsgs == b.CommMsgs &&
		a.Work == b.Work
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestImbalancedBlockCounts: under RemainderImbalanced the per-rank counts
// differ and BlocksPerNode must report the largest (the makespan count), not
// rank 0's by accident.
func TestImbalancedBlockCounts(t *testing.T) {
	prog := MustCompile(workerScaleSrc)
	c := newCluster(t, 4)
	src := c.Alloc(kir.F32, 14*64)
	dst := c.Alloc(kir.F32, 14*64)
	sess := NewSession(c, prog)
	sess.Host.Workers = 2
	stats, err := sess.Launch(LaunchSpec{
		Kernel:    "scale",
		Grid:      interp.Dim1(14),
		Block:     interp.Dim1(64),
		Args:      []Arg{BufArg(src), BufArg(dst), IntArg(14*64 - 5)},
		Remainder: RemainderImbalanced,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 14 blocks, 1 tail callback -> 13 distributable -> 4,3,3,3.
	if !intsEqual(stats.BlocksByNode, []int{4, 3, 3, 3}) {
		t.Errorf("BlocksByNode = %v, want [4 3 3 3]", stats.BlocksByNode)
	}
	if stats.BlocksPerNode != 4 {
		t.Errorf("BlocksPerNode = %d, want the max (4)", stats.BlocksPerNode)
	}
}

// TestWorkerSpansTraced: a pool wider than one emits PhaseWorker sub-spans
// whose block counts sum to the phase's block count.
func TestWorkerSpansTraced(t *testing.T) {
	prog := MustCompile(workerScaleSrc)
	c := newCluster(t, 2)
	src := c.Alloc(kir.F32, 13*64)
	dst := c.Alloc(kir.F32, 13*64)
	sess := NewSession(c, prog)
	sess.Host.Workers = 4
	rec := trace.New()
	sess.Trace = rec
	if _, err := sess.Launch(LaunchSpec{
		Kernel: "scale",
		Grid:   interp.Dim1(13),
		Block:  interp.Dim1(64),
		Args:   []Arg{BufArg(src), BufArg(dst), IntArg(13*64 - 5)},
	}); err != nil {
		t.Fatal(err)
	}
	worker, partial := 0, 0
	for _, ev := range rec.Events() {
		switch ev.Phase {
		case trace.PhaseWorker:
			worker++
		case trace.PhasePartial:
			partial++
		}
	}
	if partial != 2 {
		t.Errorf("partial spans = %d, want 2", partial)
	}
	if worker == 0 {
		t.Error("no PhaseWorker spans with a 4-wide pool")
	}
}

// TestFanOut: every index runs exactly once and has returned when fanOut
// does, and index 0 runs on the calling goroutine, so a one-worker pool
// starts no goroutine.
func TestFanOut(t *testing.T) {
	goroutine := func() string {
		buf := make([]byte, 64)
		buf = buf[:runtime.Stack(buf, false)]
		return string(bytes.Fields(buf)[1]) // "goroutine <id> [...]"
	}
	self := goroutine()
	for _, n := range []int{1, 2, 5} {
		calls := make([]atomic.Int32, n)
		var at0 string
		fanOut(n, func(i int) {
			if i == 0 {
				at0 = goroutine()
			}
			calls[i].Add(1)
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("n=%d: index %d ran %d times, want 1", n, i, c)
			}
		}
		if at0 != self {
			t.Errorf("n=%d: index 0 ran on goroutine %s, the caller is %s", n, at0, self)
		}
	}
}
