package core

import (
	"math"
	"strings"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/simnet"
	"cucc/internal/trace"
)

const vecCopySrc = `
__global__ void vec_copy(char *src, char *dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        dest[id] = src[id];
}
`

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: n, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runVecCopy executes the paper's Listing 1 example on an n-node cluster
// and returns the session stats and output bytes.
func runVecCopy(t *testing.T, n int) (*Stats, []byte) {
	t.Helper()
	prog, err := Compile(vecCopySrc)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, n)
	const N = 1200
	src := c.Alloc(kir.U8, N)
	dest := c.Alloc(kir.U8, N)
	data := make([]byte, N)
	for i := range data {
		data[i] = byte(i*13 + 7)
	}
	if err := c.WriteAll(src, data); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, prog)
	sess.Verify = true
	stats, err := sess.Launch(LaunchSpec{
		Kernel: "vec_copy",
		Grid:   interp.Dim1(5),
		Block:  interp.Dim1(256),
		Args:   []Arg{BufArg(src), BufArg(dest), IntArg(N)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, N)
	copy(out, c.Region(0, dest))
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("n=%d: dest[%d] = %d, want %d", n, i, out[i], data[i])
		}
	}
	return stats, out
}

// TestPaperWorkflowExample reproduces the Figure 5 walkthrough: 5 blocks on
// 2 nodes -> blocks 0-1 on node 0, blocks 2-3 on node 1, block 4 callback.
func TestPaperWorkflowExample(t *testing.T) {
	stats, _ := runVecCopy(t, 2)
	if !stats.Distributed {
		t.Fatal("vec_copy was not distributed")
	}
	if !stats.TailDivergent {
		t.Error("vec_copy should be tail-divergent")
	}
	if stats.BlocksPerNode != 2 {
		t.Errorf("p_size = %d, want 2", stats.BlocksPerNode)
	}
	if stats.CallbackBlocks != 1 {
		t.Errorf("callbacks = %d, want 1", stats.CallbackBlocks)
	}
	// Each node contributes 2 blocks x 256 bytes.
	if stats.CommBytesPerNode != 512 {
		t.Errorf("comm bytes/node = %d, want 512", stats.CommBytesPerNode)
	}
	// Ring allgather on 2 nodes: 1 message per node per buffer.
	if stats.CommMsgs != 2 {
		t.Errorf("total msgs = %d, want 2", stats.CommMsgs)
	}
}

func TestVecCopyAllClusterSizes(t *testing.T) {
	_, ref := runVecCopy(t, 1)
	for _, n := range []int{2, 3, 4, 5, 8} {
		_, got := runVecCopy(t, n)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("n=%d differs from single-node reference at byte %d", n, i)
			}
		}
	}
}

func TestKmeansBlockCounts(t *testing.T) {
	// Paper §7.2: 313 blocks, 16 nodes -> 19 per node + 9 callbacks;
	// 32 nodes -> 9 per node + 25 callbacks.
	prog := MustCompile(`
__global__ void k(float* out, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) out[id] = 1.0f;
}`)
	for _, tc := range []struct {
		nodes, p, cb int
	}{
		{16, 19, 9},
		{32, 9, 25},
	} {
		c := newCluster(t, tc.nodes)
		const blocks, bs = 313, 64
		n := blocks*bs - 10 // force tail divergence
		out := c.Alloc(kir.F32, blocks*bs)
		sess := NewSession(c, prog)
		sess.Verify = true
		stats, err := sess.Launch(LaunchSpec{
			Kernel: "k",
			Grid:   interp.Dim1(blocks),
			Block:  interp.Dim1(bs),
			Args:   []Arg{BufArg(out), IntArg(int64(n))},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BlocksPerNode != tc.p || stats.CallbackBlocks != tc.cb {
			t.Errorf("nodes=%d: p=%d cb=%d, want p=%d cb=%d",
				tc.nodes, stats.BlocksPerNode, stats.CallbackBlocks, tc.p, tc.cb)
		}
	}
}

func TestNonDistributableFallsBackTrivially(t *testing.T) {
	prog := MustCompile(`
__global__ void hist(char* data, int* bins, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        atomicAdd(&bins[data[id]], 1);
}`)
	if prog.Meta["hist"].Distributable {
		t.Fatal("hist should not be distributable")
	}
	c := newCluster(t, 4)
	const n = 1000
	data := c.Alloc(kir.U8, n)
	bins := c.Alloc(kir.I32, 16)
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = byte(i % 16)
	}
	if err := c.WriteAll(data, raw); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, prog)
	sess.Verify = true
	stats, err := sess.Launch(LaunchSpec{
		Kernel: "hist",
		Grid:   interp.Dim1(4),
		Block:  interp.Dim1(256),
		Args:   []Arg{BufArg(data), BufArg(bins), IntArg(n)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Distributed {
		t.Error("non-distributable kernel was distributed")
	}
	// Every node computed the full histogram identically.
	got := c.ReadI32(2, bins)
	for b := 0; b < 16; b++ {
		want := int32(n / 16)
		if b < n%16 {
			want++
		}
		if got[b] != want {
			t.Errorf("bins[%d] = %d, want %d", b, got[b], want)
		}
	}
}

func TestForceTrivialMatchesDistributed(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	run := func(force bool) []byte {
		c := newCluster(t, 4)
		const N = 1200
		src := c.Alloc(kir.U8, N)
		dest := c.Alloc(kir.U8, N)
		data := make([]byte, N)
		for i := range data {
			data[i] = byte(i * 3)
		}
		c.WriteAll(src, data)
		sess := NewSession(c, prog)
		sess.Verify = true
		stats, err := sess.Launch(LaunchSpec{
			Kernel:       "vec_copy",
			Grid:         interp.Dim1(5),
			Block:        interp.Dim1(256),
			Args:         []Arg{BufArg(src), BufArg(dest), IntArg(N)},
			ForceTrivial: force,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Distributed == force {
			t.Errorf("force=%v but Distributed=%v", force, stats.Distributed)
		}
		out := make([]byte, N)
		copy(out, c.Region(0, dest))
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trivial and distributed runs differ at %d", i)
		}
	}
}

func TestNativeKernelMatchesInterp(t *testing.T) {
	prog := MustCompile(`
__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        y[id] = a * x[id] + y[id];
}`)
	err := prog.RegisterNative("saxpy", Native{
		RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
			a := float32(args[2].F)
			n := int(args[3].I)
			for tx := 0; tx < block.X; tx++ {
				id := bx*block.X + tx
				if id < n {
					mem.StoreF32(1, id, a*mem.LoadF32(0, id)+mem.LoadF32(1, id))
				}
			}
			return nil
		},
		BlockWork: func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			return machine.BlockWork{VecFlops: 2 * float64(block.X), Bytes: 12 * float64(block.X)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(useInterp bool) []float32 {
		c := newCluster(t, 3)
		const n = 1000
		xs := make([]float32, 1024)
		ys := make([]float32, 1024)
		for i := range xs {
			xs[i] = float32(i) * 0.5
			ys[i] = 1
		}
		x := c.Alloc(kir.F32, 1024)
		y := c.Alloc(kir.F32, 1024)
		c.WriteAllF32(x, xs)
		c.WriteAllF32(y, ys)
		sess := NewSession(c, prog)
		sess.Verify = true
		_, err := sess.Launch(LaunchSpec{
			Kernel:    "saxpy",
			Grid:      interp.Dim1(4),
			Block:     interp.Dim1(256),
			Args:      []Arg{BufArg(x), BufArg(y), FloatArg(2), IntArg(n)},
			UseInterp: useInterp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.ReadF32(0, y)
	}
	ni, in := run(false), run(true)
	for i := range ni {
		if ni[i] != in[i] {
			t.Fatalf("native и interp differ at %d: %g vs %g", i, ni[i], in[i])
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	c := newCluster(t, 2)
	buf := c.Alloc(kir.U8, 100)
	f32buf := c.Alloc(kir.F32, 100)
	sess := NewSession(c, prog)
	cases := []LaunchSpec{
		{Kernel: "nope", Grid: interp.Dim1(1), Block: interp.Dim1(1)},
		{Kernel: "vec_copy", Grid: interp.Dim1(1), Block: interp.Dim1(1), Args: []Arg{BufArg(buf)}},                                     // arity
		{Kernel: "vec_copy", Grid: interp.Dim1(0), Block: interp.Dim1(1), Args: []Arg{BufArg(buf), BufArg(buf), IntArg(1)}},             // empty grid
		{Kernel: "vec_copy", Grid: interp.Dim1(1), Block: interp.Dim1(1), Args: []Arg{BufArg(buf), IntArg(1), IntArg(1)}},               // buf/scalar mismatch
		{Kernel: "vec_copy", Grid: interp.Dim1(1), Block: interp.Dim1(1), Args: []Arg{BufArg(buf), BufArg(f32buf), IntArg(1)}},          // elem mismatch
		{Kernel: "vec_copy", Grid: interp.Dim1(100), Block: interp.Dim1(256), Args: []Arg{BufArg(buf), BufArg(buf), IntArg(100 * 256)}}, // out of bounds
	}
	for i, spec := range cases {
		if _, err := sess.Launch(spec); err == nil {
			t.Errorf("case %d: invalid launch accepted", i)
		}
	}
}

// TestVerifyConsistencyParamOrder: with two bound buffers diverging on node
// 1, the consistency error names the lower parameter every time — src, even
// though dest sits lower in node memory.
func TestVerifyConsistencyParamOrder(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	c := newCluster(t, 2)
	dest := c.Alloc(kir.U8, 64)
	src := c.Alloc(kir.U8, 64)
	sess := NewSession(c, prog)
	st, err := sess.resolve(LaunchSpec{Kernel: "vec_copy", Grid: interp.Dim1(1), Block: interp.Dim1(64),
		Args: []Arg{BufArg(src), BufArg(dest), IntArg(64)}})
	if err != nil {
		t.Fatal(err)
	}
	c.Region(1, src)[3] ^= 1
	c.Region(1, dest)[5] ^= 1
	first := ""
	for i := 0; i < 20; i++ {
		err := sess.verifyConsistency(st)
		if err == nil {
			t.Fatal("diverged buffers passed verification")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "on src:") {
				t.Fatalf("error %q does not name src", first)
			}
		} else if err.Error() != first {
			t.Fatalf("call %d: error %q, first call said %q", i, err, first)
		}
	}
}

func TestStatsTiming(t *testing.T) {
	stats, _ := runVecCopy(t, 4)
	if stats.TotalSec <= 0 {
		t.Error("TotalSec not positive")
	}
	if stats.CommSec <= 0 {
		t.Error("CommSec not positive for a 4-node distributed launch")
	}
	sum := stats.Phase1Sec + stats.CommSec + stats.CallbackSec
	if stats.TotalSec < sum*0.5 || stats.TotalSec > sum*2+KernelLaunchOverheadSec*10 {
		t.Errorf("TotalSec %g inconsistent with phases %g", stats.TotalSec, sum)
	}
}

// TestScalingImprovesRuntime checks strong scaling on a compute-heavy
// kernel: simulated time must drop when nodes are added.
func TestScalingImprovesRuntime(t *testing.T) {
	// Exact-fit grid (no bound check) so there are no callback blocks and
	// scaling is limited only by communication.
	src := `
__global__ void heavy(float* out, int iters) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    float acc = 0.0f;
    for (int i = 0; i < iters; i++)
        acc += (float)i * 0.5f;
    out[id] = acc;
}`
	prog := MustCompile(src)
	times := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		c := newCluster(t, n)
		out := c.Alloc(kir.F32, 96*32)
		sess := NewSession(c, prog)
		sess.Verify = true
		stats, err := sess.Launch(LaunchSpec{
			Kernel: "heavy",
			Grid:   interp.Dim1(96),
			Block:  interp.Dim1(32),
			Args:   []Arg{BufArg(out), IntArg(1000)},
			// Mostly serial work so the modeled time dwarfs launch
			// overhead even at this (wall-clock-friendly) size.
			SIMDFraction: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		times[n] = stats.TotalSec
	}
	if !(times[2] < times[1] && times[4] < times[2]) {
		t.Errorf("no strong scaling: %v", times)
	}
	speedup := times[1] / times[4]
	if speedup < 2 {
		t.Errorf("4-node speedup = %.2f, want >= 2 for a compute-bound kernel", speedup)
	}
}

func TestSIMDFractionAffectsCost(t *testing.T) {
	prog := MustCompile(`
__global__ void f(float* out, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) {
        float acc = 0.0f;
        for (int i = 0; i < 64; i++) acc += 1.5f;
        out[id] = acc;
    }
}`)
	run := func(frac float64) float64 {
		c := newCluster(t, 1)
		out := c.Alloc(kir.F32, 64*64)
		sess := NewSession(c, prog)
		stats, err := sess.Launch(LaunchSpec{
			Kernel:       "f",
			Grid:         interp.Dim1(64),
			Block:        interp.Dim1(64),
			Args:         []Arg{BufArg(out), IntArg(64 * 64)},
			SIMDFraction: frac,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalSec
	}
	vec := run(1.0)
	serial := run(0.01)
	if !(serial > vec) {
		t.Errorf("serial run (%g) not slower than vectorized (%g)", serial, vec)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not CUDA"); err == nil {
		t.Error("bad source compiled")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic")
		}
	}()
	MustCompile("also not CUDA")
}

func TestRegisterNativeUnknownKernel(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	if err := prog.RegisterNative("missing", Native{}); err == nil {
		t.Error("RegisterNative accepted unknown kernel")
	}
}

func TestWorkMeasured(t *testing.T) {
	stats, _ := runVecCopy(t, 2)
	// Each block copies 256 bytes: 256 loads + 256 stores.
	if math.Abs(stats.Work.Bytes-512) > 1 {
		t.Errorf("per-block bytes = %g, want 512", stats.Work.Bytes)
	}
}

// clusterMachine / clusterNet expose the default test hardware for other
// test files in this package.
func clusterMachine() machine.CPU { return machine.Intel6226() }

func clusterNet() simnet.Model { return simnet.IB100() }

func TestGenerateHostModule(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	out, err := prog.ExplainKernel("vec_copy")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"phase 1: partial block execution",
		"p_size = (grid_size - 1) / cucc_size()",
		"cucc_allgather_inplace(dest",
		"phase 3: callback block execution",
		"tail_divergent=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("host module missing %q:\n%s", want, out)
		}
	}
	// Non-distributable kernels generate the trivial fallback.
	hist := MustCompile(`
__global__ void hist(char* d, int* bins, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) atomicAdd(&bins[d[id]], 1);
}`)
	out, err = hist.ExplainKernel("hist")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trivial execution") {
		t.Errorf("fallback host module missing trivial path:\n%s", out)
	}
	if _, err := prog.ExplainKernel("nope"); err == nil {
		t.Error("ExplainKernel accepted unknown kernel")
	}
}

func TestLaunchTracing(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	c := newCluster(t, 2)
	const N = 1200
	src := c.Alloc(kir.U8, N)
	dest := c.Alloc(kir.U8, N)
	sess := NewSession(c, prog)
	sess.Host.Workers = 1 // no PhaseWorker spans: keep the event count fixed
	rec := trace.New()
	sess.Trace = rec
	if _, err := sess.Launch(LaunchSpec{
		Kernel: "vec_copy",
		Grid:   interp.Dim1(5),
		Block:  interp.Dim1(256),
		Args:   []Arg{BufArg(src), BufArg(dest), IntArg(N)},
	}); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	// 2 launch-overhead + 2 phase-1 + 1 allgather + 2 callback spans.
	if len(evs) != 7 {
		t.Fatalf("got %d trace events, want 7: %+v", len(evs), evs)
	}
	phases := map[string]int{}
	for _, ev := range evs {
		phases[ev.Phase]++
		if ev.DurSec < 0 {
			t.Errorf("negative duration: %+v", ev)
		}
	}
	if phases[trace.PhasePartial] != 2 || phases[trace.PhaseAllgather] != 1 || phases[trace.PhaseCallback] != 2 {
		t.Errorf("phase counts = %v", phases)
	}
	if _, err := rec.ChromeTrace(); err != nil {
		t.Fatal(err)
	}
}

// TestTrivialLaunchTracing: the trivial path must account every simulated
// second to a span, exactly like the distributed path — a launch-overhead
// span plus a callback span per node, tiling the node's clock advance so
// that each node's span sum equals TotalSec.
func TestTrivialLaunchTracing(t *testing.T) {
	prog := MustCompile(vecCopySrc)
	c := newCluster(t, 2)
	const N = 1200
	src := c.Alloc(kir.U8, N)
	dest := c.Alloc(kir.U8, N)
	sess := NewSession(c, prog)
	sess.Host.Workers = 1
	rec := trace.New()
	sess.Trace = rec
	stats, err := sess.Launch(LaunchSpec{
		Kernel:       "vec_copy",
		Grid:         interp.Dim1(5),
		Block:        interp.Dim1(256),
		Args:         []Arg{BufArg(src), BufArg(dest), IntArg(N)},
		ForceTrivial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Distributed {
		t.Fatal("ForceTrivial launch reported distributed")
	}
	evs := rec.Events()
	if len(evs) != 4 { // per node: 1 launch-overhead + 1 callback
		t.Fatalf("got %d trace events, want 4: %+v", len(evs), evs)
	}
	for rank := 0; rank < 2; rank++ {
		var sum, cursor float64
		var sawLaunch bool
		for _, ev := range evs {
			if ev.Node != rank {
				continue
			}
			if ev.Phase == trace.PhaseLaunch {
				sawLaunch = true
			}
			if cursor != 0 && ev.StartSec != cursor {
				t.Errorf("node %d: span starts at %g, previous ended at %g", rank, ev.StartSec, cursor)
			}
			cursor = ev.StartSec + ev.DurSec
			sum += ev.DurSec
		}
		if !sawLaunch {
			t.Errorf("node %d: no %s span on the trivial path", rank, trace.PhaseLaunch)
		}
		if math.Abs(sum-stats.TotalSec) > 1e-12 {
			t.Errorf("node %d: span sum %.15g != TotalSec %.15g", rank, sum, stats.TotalSec)
		}
	}
}
