package suites

import (
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const vecAddSrc = `
__global__ void vecadd(float* a, float* b, float* c, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        c[id] = a[id] + b[id];
}
`

const vecAddBlock = 256

// VecAdd is the quickstart program: element-wise vector addition with a
// tail-divergent bound check (the paper's Listing 1 shape).
func VecAdd() *Program {
	prog := core.MustCompile(vecAddSrc)
	native(prog, "vecadd",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			x, y, out := b[0], b[1], b[2]
			n := int(args[3].I)
			for tx := 0; tx < block.X; tx++ {
				id := block.X*bx + tx
				if id < n {
					setF32(out, id, f32(x, id)+f32(y, id))
				}
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			t := float64(block.X)
			return machine.BlockWork{VecFlops: t, IntOps: 3 * t, Bytes: 12 * t}
		})

	p := &Program{
		Name:          "VecAdd",
		Kernel:        "vecadd",
		Source:        vecAddSrc,
		SIMDFraction:  1.0,
		GPUComputeEff: 0.8,
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"n": 64 << 20},
		WeakKey:       "n",
		Small:         Params{"n": 5000},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		n := pr.Get("n")
		a, b, c := virtualBuf(kir.F32, n), virtualBuf(kir.F32, n), virtualBuf(kir.F32, n)
		return core.LaunchSpec{
			Kernel:       "vecadd",
			Grid:         interp.Dim1(ceilDiv(n, vecAddBlock)),
			Block:        interp.Dim1(vecAddBlock),
			Args:         []core.Arg{core.BufArg(a), core.BufArg(b), core.BufArg(c), core.IntArg(int64(n))},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n := pr.Get("n")
		rng := rand.New(rand.NewSource(1))
		as := make([]float32, n)
		bs := make([]float32, n)
		want := make([]float32, n)
		for i := range as {
			as[i] = rng.Float32()
			bs[i] = rng.Float32()
			want[i] = as[i] + bs[i]
		}
		return dataSet{bufs: [][]byte{f32Bytes(as), f32Bytes(bs), nil}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		n := pr.Get("n")
		blocks := ceilDiv(n, vecAddBlock)
		tail := int64(n - (blocks-1)*vecAddBlock)
		return trafficOwner0(blocks, nodes, vecAddBlock, tail, 4)
	}
	return p
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
