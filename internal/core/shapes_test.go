package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/vm"
)

// Launch shapes outside the nine suite kernels, chosen as the places a
// thread-at-a-time loop could have beaten lane batching: blocks narrower
// than one batch, blocks that leave a tail batch, many barrier rounds, a
// different trip count in every lane, and atomics.  EXPERIMENTS.md records
// the timings of both loops on these shapes from before the scalar loop
// was deleted.

const shapeLoopSrc = `
__global__ void shape_loop(float* x, float* y, int n, int iters) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        float acc = x[id];
        for (int i = 0; i < iters; i++)
            acc = acc * 0.5f + x[(id + i) % n];
        y[id] = acc;
    }
}
`

// Two barriers per round; each thread writes only its own tile cell between
// them, so the kernel is race-free.
const shapeBarrierSrc = `
__global__ void shape_barrier(float* x, float* y, int n, int rounds) {
    __shared__ float tile[128];
    int tid = threadIdx.x;
    int id = blockIdx.x * blockDim.x + tid;
    tile[tid] = x[id];
    __syncthreads();
    for (int r = 0; r < rounds; r++) {
        float v = tile[(tid + 1) % blockDim.x];
        __syncthreads();
        tile[tid] = v * 0.5f + tile[tid] * 0.25f;
        __syncthreads();
    }
    y[id] = tile[tid];
}
`

// 37 is coprime to 61, so 61 consecutive ids have 61 distinct trip counts:
// no two lanes of a 32-wide batch leave the loop together.
const shapeDivergeSrc = `
__global__ void shape_diverge(float* x, float* y, int n, int iters) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        int trips = (id * 37 + 11) % 61 + 1;
        float acc = 0.0f;
        for (int i = 0; i < trips; i++) {
            if ((i + id) % 3 == 0) continue;
            acc = acc + x[(id + i) % n] * 0.5f;
        }
        y[id] = acc;
    }
}
`

// The value-class shapes: what the lane loop's compiler treats as
// thread-invariant, and each place that treatment could go wrong (the same
// rules internal/vm's differential tests pin one kernel at a time, here
// through a whole launch).  Blocks of 50 leave a tail batch at lane widths 4
// and 32.

// MatMul's inner loop: the counter, its bound, the row base and the x[...]
// row element are the same in every thread; only the column term is not.
const shapeUniformSrc = `
__global__ void shape_uniform(float* x, float* y, int n, int iters) {
    int row = blockIdx.x;
    int col = threadIdx.x;
    float sum = 0.0f;
    for (int j = 0; j < iters; j++)
        sum += x[row * iters + j] * x[j * blockDim.x + col];
    y[row * blockDim.x + col] = sum;
}
`

// VecAdd: every value hangs off the thread's id; nothing to hoist.
const shapeVariantSrc = `
__global__ void shape_variant(float* x, float* y, int n, int iters) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        y[id] = x[id] * 0.5f + x[n - 1 - id];
}
`

// A uniform slot assigned under a per-thread if and read after the join; a
// per-thread break out of a uniform-bound loop whose counter is read
// afterwards; a ternary with uniform arms and a per-thread condition.
const shapeJoinSrc = `
__global__ void shape_join(float* x, float* y, int n, int iters) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    int u = iters % 7;
    if (id % 3 == 1) { u = u + 5; }
    int j = 0;
    while (j < iters) {
        if (x[id] * (float)(j + 1) > 6.0f) break;
        j = j + 1;
    }
    int v = (id % 2 == 0) ? iters * 2 : iters * 3;
    y[id] = x[(id + u) % n] + (float)(j * 100 + v);
}
`

// A uniform loop inside a loop threads leave at different times, entered
// only by threads other than each batch's lane 0.
const shapeNestedSrc = `
__global__ void shape_nested(float* x, float* y, int n, int iters) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = x[id];
    if (threadIdx.x % 4 != 0) {
        int i = 0;
        while (i < id % 5) {
            for (int j = 0; j < iters; j++)
                acc = acc * 0.5f + x[(i * iters + j) % n];
            i = i + 1;
        }
    }
    y[id] = acc;
}
`

// Uniform-index shared loads after a barrier, in a block of several batches.
const shapeSharedSrc = `
__global__ void shape_shared(float* x, float* y, int n, int rounds) {
    __shared__ float tile[64];
    int tid = threadIdx.x;
    int id = blockIdx.x * blockDim.x + tid;
    tile[tid] = x[id];
    __syncthreads();
    float p = 0.0f;
    for (int r = 0; r < rounds; r++)
        p = p + tile[(r * 7 + n) % blockDim.x];
    y[id] = p + tile[tid];
}
`

type launchShape struct {
	name, src, kernel string
	grid, block       int
	// build allocates and fills the launch's buffers and returns its args.
	build func(tb testing.TB, c *cluster.Cluster, n int) []core.Arg
}

func floatInOut(scalar int64) func(tb testing.TB, c *cluster.Cluster, n int) []core.Arg {
	return func(tb testing.TB, c *cluster.Cluster, n int) []core.Arg {
		x := c.Alloc(kir.F32, n)
		y := c.Alloc(kir.F32, n)
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(i%17) * 0.25
		}
		if err := c.WriteAllF32(x, data); err != nil {
			tb.Fatal(err)
		}
		return []core.Arg{core.BufArg(x), core.BufArg(y), core.IntArg(int64(n)), core.IntArg(scalar)}
	}
}

func histData(tb testing.TB, c *cluster.Cluster, n int) cluster.Buffer {
	d := c.Alloc(kir.U8, n)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.WriteAll(d, data); err != nil {
		tb.Fatal(err)
	}
	return d
}

var launchShapes = []launchShape{
	{"block1", shapeLoopSrc, "shape_loop", 512, 1, floatInOut(16)},
	{"block3", shapeLoopSrc, "shape_loop", 256, 3, floatInOut(16)},
	{"tail33", shapeLoopSrc, "shape_loop", 32, 33, floatInOut(16)},
	{"tail255", shapeLoopSrc, "shape_loop", 8, 255, floatInOut(16)},
	{"barrier", shapeBarrierSrc, "shape_barrier", 8, 128, floatInOut(24)},
	{"diverge", shapeDivergeSrc, "shape_diverge", 16, 64, floatInOut(0)},
	{"uniform-heavy", shapeUniformSrc, "shape_uniform", 32, 64, floatInOut(24)},
	{"all-variant", shapeVariantSrc, "shape_variant", 32, 64, floatInOut(0)},
	{"join", shapeJoinSrc, "shape_join", 8, 50, floatInOut(9)},
	{"nested-uniform", shapeNestedSrc, "shape_nested", 8, 50, floatInOut(3)},
	{"shared-uniform", shapeSharedSrc, "shape_shared", 8, 50, floatInOut(5)},
	{"atomic-global", suites.HistogramAtomicSrc, "hist_atomic", 8, 256,
		func(tb testing.TB, c *cluster.Cluster, n int) []core.Arg {
			bins := c.Alloc(kir.I32, 64)
			return []core.Arg{core.BufArg(histData(tb, c, n)), core.BufArg(bins),
				core.IntArg(int64(n)), core.IntArg(suites.HistRounds)}
		}},
	{"atomic-shared", suites.HistogramPortedSrc, "hist_private", 8, 256,
		func(tb testing.TB, c *cluster.Cluster, n int) []core.Arg {
			partial := c.Alloc(kir.I32, 8*64)
			return []core.Arg{core.BufArg(histData(tb, c, n)), core.BufArg(partial),
				core.IntArg(int64(n)), core.IntArg(64), core.IntArg(suites.HistRounds)}
		}},
}

// shapeSession builds a fresh cluster holding the shape's buffers and a
// session on the given engine, ready to Launch spec.
func shapeSession(tb testing.TB, sh launchShape, nodes, workers int, eng cluster.Engine) (*core.Session, core.LaunchSpec) {
	tb.Helper()
	prog, err := core.Compile(sh.src)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	sess := core.NewSession(c, prog)
	sess.Host.Engine = eng
	sess.Host.Workers = workers
	return sess, core.LaunchSpec{
		Kernel: sh.kernel,
		Grid:   interp.Dim1(sh.grid),
		Block:  interp.Dim1(sh.block),
		Args:   sh.build(tb, c, sh.grid*sh.block),
	}
}

func nodeHeap(c *cluster.Cluster, node int) []byte {
	all := cluster.Buffer{Off: 0, Elem: kir.U8, Count: c.BytesPerNode()}
	return append([]byte(nil), c.Region(node, all)...)
}

// TestLaunchShapesMatchInterp: on every shape the default engine leaves
// each node's heap bitwise equal to the interpreter's and reports the same
// Stats (so the same Work), on one node and across four with a worker pool,
// at lane widths 1, 4 and the default 32.
func TestLaunchShapesMatchInterp(t *testing.T) {
	for _, sh := range launchShapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, nodes := range []int{1, 4} {
				workers := 1
				if nodes > 1 {
					workers = 2
				}
				ref, spec := shapeSession(t, sh, nodes, workers, cluster.EngineInterp)
				ref.Verify = true
				want, err := ref.Launch(spec)
				if err != nil {
					t.Fatalf("%d nodes, interp: %v", nodes, err)
				}
				for _, width := range []int{1, 4, 32} {
					sess, spec := shapeSession(t, sh, nodes, workers, cluster.EngineDefault)
					sess.Verify = true
					prev := vm.SetLaneWidth(width)
					got, err := sess.Launch(spec)
					vm.SetLaneWidth(prev)
					if err != nil {
						t.Fatalf("%d nodes, %s, width %d: %v", nodes, sess.EffectiveEngine(), width, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d nodes, width %d: stats differ\n%s %+v\ninterp %+v", nodes, width, sess.EffectiveEngine(), got, want)
					}
					for node := 0; node < nodes; node++ {
						if !bytes.Equal(nodeHeap(sess.Cluster, node), nodeHeap(ref.Cluster, node)) {
							t.Errorf("%d nodes, width %d: node %d heap differs from interp", nodes, width, node)
						}
					}
				}
			}
		})
	}
}

// BenchmarkLaunchShapes times one single-node, single-worker launch of each
// shape per engine.
func BenchmarkLaunchShapes(b *testing.B) {
	for _, sh := range launchShapes {
		for _, eng := range []cluster.Engine{cluster.EngineVMLanes, cluster.EngineInterp} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, eng), func(b *testing.B) {
				sess, spec := shapeSession(b, sh, 1, 1, eng)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sess.Launch(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// gatherJob runs what cuccd runs for one suite-mode Transpose job: a fresh
// cluster with recovery on, build (allocate + broadcast the input), launch,
// output check, close.
func gatherJob(tb testing.TB, nodes int) {
	tb.Helper()
	p, _ := suites.ByName("Transpose")
	c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
		Recovery: recovery.Policy{Enabled: true}})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	inst, err := p.Build(c, p.Small)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := core.NewSession(c, p.Compiled).Launch(inst.Spec); err != nil {
		tb.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkGatherJob times the whole per-job path of the benchmark's gather
// workload (1 MiB in, 1 MiB out) at its two node counts.
func BenchmarkGatherJob(b *testing.B) {
	for _, nodes := range []int{8, 2} {
		b.Run(fmt.Sprintf("n%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gatherJob(b, nodes)
			}
		})
	}
}

// TestGatherJobAllocBudget: once the node-heap free list is warm and the
// program's data set exists, a gather job at 8 nodes allocates the start
// checkpoint (1 MiB), each rank's copy of its own Allgather chunk (1 MiB in
// all) and launch bookkeeping — not 8 node heaps, not a fresh input and
// expected output, not a send arena per rank: under 3 MB where those took
// 11.6 MB.
func TestGatherJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const runs = 5
	gatherJob(t, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		gatherJob(t, 8)
	}
	runtime.ReadMemStats(&after)
	if perJob := (after.TotalAlloc - before.TotalAlloc) / runs; perJob >= 3<<20 {
		t.Errorf("warm gather job at 8 nodes allocated %d bytes, budget is %d", perJob, 3<<20)
	} else {
		t.Logf("warm gather job at 8 nodes: %d bytes allocated", perJob)
	}
}
