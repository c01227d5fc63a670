package suites

import (
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const matmulSrc = `
__global__ void matmul(float* a, float* b, float* out, int tiles, int k) {
    int n = tiles * blockDim.x;
    int row = blockIdx.x;
    for (int t = 0; t < tiles; t++) {
        int col = t * blockDim.x + threadIdx.x;
        float sum = 0.0f;
        for (int j = 0; j < k; j++)
            sum += a[row * k + j] * b[j * n + col];
        out[row * n + col] = sum;
    }
}
`

const matmulBlock = 256

// MatMul computes one output row per block: dense, fully vectorizable dot
// products with plenty of blocks — a well-scaling compute-heavy program.
func MatMul() *Program {
	prog := core.MustCompile(matmulSrc)
	native(prog, "matmul",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			x, y, out := b[0], b[1], b[2]
			tiles := int(args[3].I)
			k := int(args[4].I)
			n := tiles * block.X
			row := bx
			for t := 0; t < tiles; t++ {
				for tx := 0; tx < block.X; tx++ {
					col := t*block.X + tx
					var sum float32
					for j := 0; j < k; j++ {
						sum += f32(x, row*k+j) * f32(y, j*n+col)
					}
					setF32(out, row*n+col, sum)
				}
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			tiles := float64(args[3].I)
			k := float64(args[4].I)
			n := tiles * float64(block.X)
			return machine.BlockWork{
				VecFlops: n * k * 2,
				IntOps:   n * k,
				// a row + output row stream; b is shared across blocks and
				// amortizes to about one compulsory pass per block row.
				Bytes: (2*k + 2*n) * 4,
			}
		})

	p := &Program{
		Name:          "MatMul",
		Kernel:        "matmul",
		Source:        matmulSrc,
		SIMDFraction:  1.0,
		GPUComputeEff: 0.85,
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"tiles": 4, "k": 4096}, // n = 1024, deep k
		Small:         Params{"tiles": 1, "k": 24},   // n = 256 (one tile of matmulBlock threads), shallow k
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		tiles, k := pr.Get("tiles"), pr.Get("k")
		n := tiles * matmulBlock
		a, b, out := virtualBuf(kir.F32, n*k), virtualBuf(kir.F32, k*n), virtualBuf(kir.F32, n*n)
		return core.LaunchSpec{
			Kernel: "matmul",
			Grid:   interp.Dim1(n),
			Block:  interp.Dim1(matmulBlock),
			Args: []core.Arg{
				core.BufArg(a), core.BufArg(b), core.BufArg(out),
				core.IntArg(int64(tiles)), core.IntArg(int64(k)),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n := pr.Get("tiles") * matmulBlock
		k := pr.Get("k")
		rng := rand.New(rand.NewSource(6))
		as := make([]float32, n*k)
		bs := make([]float32, k*n)
		for i := range as {
			as[i] = rng.Float32() - 0.5
		}
		for i := range bs {
			bs[i] = rng.Float32() - 0.5
		}
		want := make([]float32, n*n)
		for r := 0; r < n; r++ {
			for cc := 0; cc < n; cc++ {
				var sum float32
				for j := 0; j < k; j++ {
					sum += as[r*k+j] * bs[j*n+cc]
				}
				want[r*n+cc] = sum
			}
		}
		return dataSet{bufs: [][]byte{f32Bytes(as), f32Bytes(bs), nil}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		n := pr.Get("tiles") * matmulBlock
		return trafficOwner0(n, nodes, int64(n), int64(n), 4)
	}
	return p
}
