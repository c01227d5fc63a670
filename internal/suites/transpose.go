package suites

import (
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const transposeSrc = `
__global__ void transpose(float* in, float* out, int tiles) {
    int n = tiles * blockDim.x;
    for (int t = 0; t < tiles; t++) {
        int col = t * blockDim.x + threadIdx.x;
        out[blockIdx.x * n + col] = in[col * n + blockIdx.x];
    }
}
`

const transposeBlock = 256

// stridedReadBytes is the effective traffic of one column-strided read:
// a full cache line per useful element plus latency-limited prefetch
// inefficiency.  The amplification makes transpose memory-pathological on
// both CPU and GPU and lets large CPU caches win (paper §7.4.1).
const stridedReadBytes = 256

// Transpose is the matrix transpose: block b produces output row b from a
// strided column read.  Memory movement only; the paper's example of
// communication-limited scaling (§7.2) and of CPUs beating GPUs via LLC
// capacity (§7.4.1).
func Transpose() *Program {
	prog := core.MustCompile(transposeSrc)
	native(prog, "transpose",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			// The tiles x threads of the block cover output row bx, column
			// by column; each element comes from input column bx, one row
			// (n elements) further down than the last.
			n := int(args[2].I) * block.X
			in, row := b[0], b[1][4*bx*n:4*(bx+1)*n]
			src := bx
			for col := 0; col < n; col++ {
				setF32(row, col, f32(in, src))
				src += n
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			n := float64(int(args[2].I) * block.X)
			return machine.BlockWork{
				IntOps: 6 * n,
				// n coalesced writes + n strided reads with line-granular
				// amplification.
				Bytes: n*4 + n*stridedReadBytes,
			}
		})

	p := &Program{
		Name:          "Transpose",
		Kernel:        "transpose",
		Source:        transposeSrc,
		SIMDFraction:  1.0,
		GPUComputeEff: 0.6,
		GPUMemEff:     1.0, // GPU sector-granular coalescing absorbs part of the stride amplification
		Compiled:      prog,
		Default:       Params{"tiles": 16}, // n = 4096, 64 MB matrix
		Small:         Params{"tiles": 2},  // n = 512 at block 256
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		tiles := pr.Get("tiles")
		n := tiles * transposeBlock
		in, out := virtualBuf(kir.F32, n*n), virtualBuf(kir.F32, n*n)
		return core.LaunchSpec{
			Kernel:       "transpose",
			Grid:         interp.Dim1(n),
			Block:        interp.Dim1(transposeBlock),
			Args:         []core.Arg{core.BufArg(in), core.BufArg(out), core.IntArg(int64(tiles))},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n := pr.Get("tiles") * transposeBlock
		ins := make([]float32, n*n)
		want := make([]float32, n*n)
		for r := 0; r < n; r++ {
			for cc := 0; cc < n; cc++ {
				v := float32(r*n+cc) * 0.25
				ins[r*n+cc] = v
				want[cc*n+r] = v
			}
		}
		return dataSet{bufs: [][]byte{f32Bytes(ins), nil}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		n := pr.Get("tiles") * transposeBlock
		// n blocks, each writing one n-element row; no tail block.
		return trafficOwner0(n, nodes, int64(n), int64(n), 4)
	}
	return p
}
