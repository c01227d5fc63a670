package suites

import (
	"math"
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const binomialSrc = `
__global__ void binomial(float* s0, float* out, int steps, int rounds, float strike, float pu, float pd, float up, float down) {
    __shared__ float vals[256];
    int t = threadIdx.x;
    float s = s0[blockIdx.x];
    float price = 0.0f;
    for (int r = 0; r < rounds; r++) {
        float leaf = s * powf(up, (float)t) * powf(down, (float)(steps - t));
        vals[t] = fmaxf(leaf - strike, 0.0f);
        __syncthreads();
        for (int j = steps; j > 0; j = j - 1) {
            float v = 0.0f;
            if (t < j)
                v = pu * vals[t + 1] + pd * vals[t];
            __syncthreads();
            if (t < j)
                vals[t] = v;
            __syncthreads();
        }
        price = vals[0];
        __syncthreads();
    }
    if (t == 0)
        out[blockIdx.x] = price;
}
`

// BinomialOption prices one option per block by backward induction over a
// binomial tree staged in shared memory.  Only thread 0 writes one scalar
// per block — the paper's minimal-communication pattern (§7.4.1) and the
// showcase for thread-parallel CPUs over SIMD CPUs (§8.2: the induction is
// a dependence chain that resists vectorization after migration).
func BinomialOption() *Program {
	prog := core.MustCompile(binomialSrc)
	native(prog, "binomial",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			steps := int(args[2].I)
			rounds := int(args[3].I)
			strike := float32(args[4].F)
			pu := float32(args[5].F)
			pd := float32(args[6].F)
			up := float32(args[7].F)
			down := float32(args[8].F)
			s := f32(b[0], bx)
			vals := make([]float32, block.X)
			var price float32
			for r := 0; r < rounds; r++ {
				for t := 0; t <= steps && t < block.X; t++ {
					leaf := s * float32(math.Pow(float64(up), float64(t))) *
						float32(math.Pow(float64(down), float64(steps-t)))
					v := leaf - strike
					if v < 0 {
						v = 0
					}
					vals[t] = v
				}
				for j := steps; j > 0; j-- {
					// Ascending t reads vals[t+1] before it is overwritten,
					// matching the double-barrier GPU staging.
					for t := 0; t < j; t++ {
						vals[t] = pu*vals[t+1] + pd*vals[t]
					}
				}
				price = vals[0]
			}
			setF32(b[1], bx, price)
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			steps := float64(args[2].I)
			rounds := float64(args[3].I)
			induction := steps * (steps + 1) // 2 flops per node over steps*(steps+1)/2 nodes
			leaves := (steps + 1) * 35       // two powf + mul/sub/max
			return machine.BlockWork{
				SerialFlops: rounds * (induction + leaves),
				IntOps:      rounds * induction,
				Bytes:       8, // one scalar read + one scalar write
			}
		})

	p := &Program{
		Name:   "BinomialOption",
		Kernel: "binomial",
		Source: binomialSrc,
		// Migrated control flow (barrier staging) defeats vectorization;
		// the paper measured a 55x thread-vs-SIMD gap on this kernel.
		SIMDFraction: 0.05,
		// Shrinking active sets and dependence chains keep the GPU far
		// from peak on this kernel.
		GPUComputeEff: 0.12,
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"blocks": 1024, "steps": 255, "rounds": 64},
		WeakKey:       "blocks",
		Small:         Params{"blocks": 8, "steps": 31, "rounds": 2},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		blocks, steps := pr.Get("blocks"), pr.Get("steps")
		s0, out := virtualBuf(kir.F32, blocks), virtualBuf(kir.F32, blocks)
		return core.LaunchSpec{
			Kernel: "binomial",
			Grid:   interp.Dim1(blocks),
			Block:  interp.Dim1(steps + 1),
			Args: []core.Arg{
				core.BufArg(s0), core.BufArg(out),
				core.IntArg(int64(steps)), core.IntArg(int64(pr.Get("rounds"))),
				core.FloatArg(100), core.FloatArg(0.55), core.FloatArg(0.43),
				core.FloatArg(1.01), core.FloatArg(0.99),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		blocks := pr.Get("blocks")
		steps := pr.Get("steps")
		rounds := pr.Get("rounds")
		rng := rand.New(rand.NewSource(4))
		s0s := make([]float32, blocks)
		for i := range s0s {
			s0s[i] = 90 + rng.Float32()*20
		}
		// float32 constants mirror the kernel's single-precision arithmetic.
		const strike, pu, pd, up, down = float32(100), float32(0.55), float32(0.43), float32(1.01), float32(0.99)
		want := make([]float32, blocks)
		for b := 0; b < blocks; b++ {
			vals := make([]float32, steps+1)
			var price float32
			for r := 0; r < rounds; r++ {
				for t := 0; t <= steps; t++ {
					leaf := s0s[b] * float32(math.Pow(float64(up), float64(t))) *
						float32(math.Pow(float64(down), float64(steps-t)))
					v := leaf - strike
					if v < 0 {
						v = 0
					}
					vals[t] = v
				}
				for j := steps; j > 0; j-- {
					for t := 0; t < j; t++ {
						vals[t] = pu*vals[t+1] + pd*vals[t]
					}
				}
				price = vals[0]
			}
			want[b] = price
		}
		return dataSet{bufs: [][]byte{f32Bytes(s0s), nil}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		// One scalar write per block.
		return trafficOwner0(pr.Get("blocks"), nodes, 1, 1, 4)
	}
	return p
}
