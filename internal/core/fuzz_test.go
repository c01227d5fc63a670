package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cucc/internal/analysis"
	"cucc/internal/cluster"
	"cucc/internal/interp"
	"cucc/internal/kir"
)

// genKernel builds a random kernel from a template family with a known
// expected classification.  The generator varies: element interleaving
// width, guard kind, value arithmetic, and an optional uniform inner loop.
type genKernel struct {
	src           string
	distributable bool
	tail          bool
	// interleave is the number of elements each thread writes.
	interleave int
}

func generate(rng *rand.Rand) genKernel {
	interleave := 1 + rng.Intn(3)
	kind := rng.Intn(5)

	var value string
	switch rng.Intn(4) {
	case 0:
		value = "(float)(id * 3 + 1)"
	case 1:
		value = "(float)id * 0.5f + 2.0f"
	case 2:
		value = "sqrtf((float)(id + 1))"
	default:
		value = "acc"
	}

	var body strings.Builder
	body.WriteString("    int id = blockIdx.x * blockDim.x + threadIdx.x;\n")
	body.WriteString("    float acc = 0.0f;\n")
	if rng.Intn(2) == 0 {
		body.WriteString("    for (int i = 0; i < iters; i++)\n        acc += (float)i * 0.25f;\n")
	} else {
		body.WriteString("    acc = (float)id;\n")
	}

	stores := func(indent, idxPrefix string, count int) string {
		var b strings.Builder
		for j := 0; j < count; j++ {
			fmt.Fprintf(&b, "%sout[%s%d * %s + %d] = %s + %d.0f;\n", indent, "", interleave, idxPrefix, j, value, j)
		}
		return b.String()
	}

	g := genKernel{interleave: interleave}
	switch kind {
	case 0: // unguarded, fully distributable
		body.WriteString(stores("    ", "id", interleave))
		g.distributable = true
	case 1: // tail-divergent bound check
		body.WriteString("    if (id < n) {\n")
		body.WriteString(stores("        ", "id", interleave))
		body.WriteString("    }\n")
		g.distributable = true
		g.tail = true
	case 2: // gapped: writes only part of the interleave group
		wide := interleave + 1
		fmt.Fprintf(&body, "    out[%d * id] = %s;\n", wide, value)
		g.distributable = false
	case 3: // block-variant guard
		body.WriteString("    if (blockIdx.x > 1)\n")
		fmt.Fprintf(&body, "        out[id] = %s;\n", value)
		g.distributable = false
	default: // indirect write
		fmt.Fprintf(&body, "    out[idx[id]] = %s;\n", value)
		g.distributable = false
	}

	g.src = fmt.Sprintf(`
__global__ void fuzzed(float* out, int* idx, int n, int iters) {
%s}
`, body.String())
	return g
}

// TestFuzzAnalysisClassification generates random kernels and checks the
// analysis classifies each family as expected.
func TestFuzzAnalysisClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 200; i++ {
		g := generate(rng)
		prog, err := Compile(g.src)
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", i, err, g.src)
		}
		md := prog.Meta["fuzzed"]
		if md.Distributable != g.distributable {
			t.Fatalf("kernel %d: distributable = %v, want %v\n%s\n%s",
				i, md.Distributable, g.distributable, md.Summary(), g.src)
		}
		if g.distributable && md.TailDivergent != g.tail {
			t.Fatalf("kernel %d: tail = %v, want %v\n%s", i, md.TailDivergent, g.tail, g.src)
		}
		if g.distributable {
			unit, err := md.Buffers[0].UnitElems.Eval(analysis.Env{Bdx: 64, Bdy: 1, Gdx: 4, Gdy: 1,
				Params: map[string]int64{"n": 256, "iters": 3}})
			if err != nil {
				t.Fatal(err)
			}
			if unit != int64(g.interleave*64) {
				t.Fatalf("kernel %d: unit = %d, want %d", i, unit, g.interleave*64)
			}
		}
	}
}

// TestFuzzDistributedEquivalence executes random kernels (distributable
// and fallback alike) on multi-node clusters and checks the memory matches
// a single-node run bit for bit, under both remainder strategies and both
// IR engines (the single-node interpreter run is the oracle for all of
// them).
func TestFuzzDistributedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	ran := 0
	for i := 0; ran < 40; i++ {
		g := generate(rng)
		prog, err := Compile(g.src)
		if err != nil {
			t.Fatal(err)
		}
		// Indirect kernels need valid idx contents to execute at all;
		// give every kernel an identity index buffer.
		grid := 3 + rng.Intn(6)
		block := 32
		n := grid*block - rng.Intn(block)
		outLen := (g.interleave + 2) * grid * block
		run := func(nodes int, strategy RemainderStrategy, eng cluster.Engine) []byte {
			c := newCluster(t, nodes)
			out := c.Alloc(kir.F32, outLen)
			idx := c.Alloc(kir.I32, grid*block)
			ids := make([]int32, grid*block)
			for j := range ids {
				ids[j] = int32(j)
			}
			c.WriteAllI32(idx, ids)
			sess := NewSession(c, prog)
			sess.Verify = true
			sess.Host.Engine = eng
			if _, err := sess.Launch(LaunchSpec{
				Kernel:    "fuzzed",
				Grid:      interp.Dim1(grid),
				Block:     interp.Dim1(block),
				Args:      []Arg{BufArg(out), BufArg(idx), IntArg(int64(n)), IntArg(3)},
				Remainder: strategy,
			}); err != nil {
				t.Fatalf("kernel %d (nodes=%d, engine=%s): %v\n%s", i, nodes, eng, err, g.src)
			}
			snap := make([]byte, out.Bytes())
			copy(snap, c.Region(0, out))
			return snap
		}
		engines := []cluster.Engine{cluster.EngineInterp, cluster.EngineVMLanes}
		ref := run(1, RemainderCallback, cluster.EngineInterp)
		if got := run(1, RemainderCallback, cluster.EngineVMLanes); !bytes.Equal(got, ref) {
			t.Fatalf("kernel %d: single-node vm differs from interpreter\n%s", i, g.src)
		}
		for _, nodes := range []int{2, 5} {
			for _, strat := range []RemainderStrategy{RemainderCallback, RemainderImbalanced} {
				eng := engines[(i+nodes)%2]
				if got := run(nodes, strat, eng); !bytes.Equal(got, ref) {
					t.Fatalf("kernel %d: nodes=%d strategy=%d engine=%s differs from single-node\n%s",
						i, nodes, strat, eng, g.src)
				}
			}
		}
		ran++
	}
}
