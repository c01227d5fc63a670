package suites

import (
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const epSrc = `
__global__ void ep(float* fitness, int n, int iters, int seed) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        int state = seed + id;
        float acc = 0.0f;
        for (int i = 0; i < iters; i++) {
            state = (state * 1103515245 + 12345) % 2147483648;
            acc += (float)(state % 1000) * 0.001f;
        }
        fitness[id] = acc;
    }
}
`

const epBlock = 256

// EP is the evolutionary-programming kernel: per-thread serial random
// mutation/evaluation chains.  With only 512 blocks and an
// unvectorizable inner loop it cannot exploit large CPU clusters, the
// paper's example of a GPU-favored program (§7.4.1).
func EP() *Program {
	prog := core.MustCompile(epSrc)
	native(prog, "ep",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			n := int(args[1].I)
			iters := int(args[2].I)
			seed := args[3].I
			for tx := 0; tx < block.X; tx++ {
				id := bx*block.X + tx
				if id >= n {
					continue
				}
				state := seed + int64(id)
				var acc float32
				for i := 0; i < iters; i++ {
					state = (state*1103515245 + 12345) % 2147483648
					acc += float32(state%1000) * 0.001
				}
				setF32(b[0], id, acc)
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			t := float64(block.X)
			iters := float64(args[2].I)
			return machine.BlockWork{
				SerialFlops: t * iters * 2,
				IntOps:      t * iters * 4,
				Bytes:       t * 4,
			}
		})

	p := &Program{
		Name:          "EP",
		Kernel:        "ep",
		Source:        epSrc,
		SIMDFraction:  0.05, // the LCG chain is a serial dependence
		GPUComputeEff: 0.6,  // GPUs hide the chain latency across 128k threads
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"n": 512 * epBlock, "iters": 4096}, // 512 blocks, the paper's count
		WeakKey:       "n",
		Small:         Params{"n": 600, "iters": 16},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		n := pr.Get("n")
		return core.LaunchSpec{
			Kernel: "ep",
			Grid:   interp.Dim1(ceilDiv(n, epBlock)),
			Block:  interp.Dim1(epBlock),
			Args: []core.Arg{
				core.BufArg(virtualBuf(kir.F32, n)), core.IntArg(int64(n)),
				core.IntArg(int64(pr.Get("iters"))), core.IntArg(12345),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n, iters := pr.Get("n"), pr.Get("iters")
		want := make([]float32, n)
		for id := 0; id < n; id++ {
			state := int64(12345 + id)
			var acc float32
			for i := 0; i < iters; i++ {
				state = (state*1103515245 + 12345) % 2147483648
				acc += float32(state%1000) * 0.001
			}
			want[id] = acc
		}
		return dataSet{bufs: [][]byte{nil}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		n := pr.Get("n")
		blocks := ceilDiv(n, epBlock)
		tail := int64(n - (blocks-1)*epBlock)
		return trafficOwner0(blocks, nodes, epBlock, tail, 4)
	}
	return p
}
