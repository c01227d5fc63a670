package suites

import (
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const gaSrc = `
__global__ void ga(char* query, char* target, int* blockBest, int n, int m) {
    __shared__ int scores[256];
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    int s = 0;
    if (id < n) {
        for (int j = 0; j < m; j++) {
            if (query[id + j] == target[j])
                s = s + 1;
        }
    }
    scores[threadIdx.x] = s;
    __syncthreads();
    for (int stride = 128; stride > 0; stride = stride / 2) {
        if (threadIdx.x < stride) {
            if (scores[threadIdx.x + stride] > scores[threadIdx.x])
                scores[threadIdx.x] = scores[threadIdx.x + stride];
        }
        __syncthreads();
    }
    if (threadIdx.x == 0)
        blockBest[blockIdx.x] = scores[0];
}
`

const gaBlock = 256

// GA is the gene-alignment kernel: each thread scores one window of the
// query against the target pattern; a shared-memory tree reduction leaves
// one best-match score per block, written by thread 0.  256 blocks with a
// single scalar write each: writes are sparse relative to compute, which
// is why PGAS ties CuCC here (§7.3), while the few blocks and
// unvectorized byte loops make GPUs win the runtime comparison (§7.4.1).
func GA() *Program {
	prog := core.MustCompile(gaSrc)
	native(prog, "ga",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			query, target := b[0], b[1]
			n := int(args[3].I)
			m := int(args[4].I)
			var best int32
			for tx := 0; tx < block.X; tx++ {
				id := bx*block.X + tx
				if id >= n {
					continue
				}
				var s int32
				for j := 0; j < m; j++ {
					if query[id+j] == target[j] {
						s++
					}
				}
				if s > best {
					best = s
				}
			}
			setI32(b[2], bx, best)
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			t := float64(block.X)
			m := float64(args[4].I)
			return machine.BlockWork{
				IntOps: t*m*3 + t*2,
				Bytes:  t + m + 4, // query window + cached target + one score
			}
		})

	p := &Program{
		Name:          "GA",
		Kernel:        "ga",
		Source:        gaSrc,
		SIMDFraction:  0.25,
		GPUComputeEff: 0.6,
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"n": 256 * gaBlock, "m": 4096}, // 256 blocks, the paper's count
		WeakKey:       "n",
		Small:         Params{"n": 700, "m": 16},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		n, m := pr.Get("n"), pr.Get("m")
		blocks := ceilDiv(n, gaBlock)
		query, target, blockBest := virtualBuf(kir.U8, n+m), virtualBuf(kir.U8, m), virtualBuf(kir.I32, blocks)
		return core.LaunchSpec{
			Kernel: "ga",
			Grid:   interp.Dim1(blocks),
			Block:  interp.Dim1(gaBlock),
			Args: []core.Arg{
				core.BufArg(query), core.BufArg(target), core.BufArg(blockBest),
				core.IntArg(int64(n)), core.IntArg(int64(m)),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n, m := pr.Get("n"), pr.Get("m")
		blocks := ceilDiv(n, gaBlock)
		rng := rand.New(rand.NewSource(5))
		bases := []byte{'A', 'C', 'G', 'T'}
		q := make([]byte, n+m)
		for i := range q {
			q[i] = bases[rng.Intn(4)]
		}
		tg := make([]byte, m)
		for i := range tg {
			tg[i] = bases[rng.Intn(4)]
		}
		want := make([]int32, blocks)
		for b := 0; b < blocks; b++ {
			var best int32
			for tx := 0; tx < gaBlock; tx++ {
				id := b*gaBlock + tx
				if id >= n {
					continue
				}
				var s int32
				for j := 0; j < m; j++ {
					if q[id+j] == tg[j] {
						s++
					}
				}
				if s > best {
					best = s
				}
			}
			want[b] = best
		}
		return dataSet{bufs: [][]byte{q, tg, nil}, want: i32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		blocks := ceilDiv(pr.Get("n"), gaBlock)
		return trafficOwner0(blocks, nodes, 1, 1, 4)
	}
	return p
}
