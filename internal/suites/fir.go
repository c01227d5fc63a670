package suites

import (
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const firSrc = `
__global__ void fir(float* in, float* out, float* coeff, int n, int taps) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        float sum = 0.0f;
        for (int t = 0; t < taps; t++)
            sum += coeff[t] * in[id + t];
        out[id] = sum;
    }
}
`

const firBlock = 256

// firLanes is how many threads the native runs side by side, each with its
// own running sum; the threads after a block's last full group run one at a
// time.
const firLanes = 8

// FIR is the finite-impulse-response filter: the paper's showcase for
// near-linear scalability (heavy per-thread computation, small
// communication relative to compute; §7.2).
func FIR() *Program {
	prog := core.MustCompile(firSrc)
	native(prog, "fir",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			in, out, coeff := b[0], b[1], b[2]
			n := int(args[3].I)
			taps := int(args[4].I)
			id, end := block.X*bx, min(block.X*(bx+1), n)
			// firLanes threads at a time, one running sum each: every
			// coefficient is loaded once per group, and the lanes' add
			// chains are independent.
			for ; id+firLanes <= end; id += firLanes {
				var s0, s1, s2, s3, s4, s5, s6, s7 float32
				for t := 0; t < taps; t++ {
					c := f32(coeff, t)
					x := (*[4 * firLanes]byte)(in[4*(id+t):])[:]
					s0 += c * f32(x, 0)
					s1 += c * f32(x, 1)
					s2 += c * f32(x, 2)
					s3 += c * f32(x, 3)
					s4 += c * f32(x, 4)
					s5 += c * f32(x, 5)
					s6 += c * f32(x, 6)
					s7 += c * f32(x, 7)
				}
				for l, sum := range [firLanes]float32{s0, s1, s2, s3, s4, s5, s6, s7} {
					setF32(out, id+l, sum)
				}
			}
			for ; id < end; id++ {
				var sum float32
				for t := 0; t < taps; t++ {
					sum += f32(coeff, t) * f32(in, id+t)
				}
				setF32(out, id, sum)
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			t := float64(block.X)
			taps := float64(args[4].I)
			return machine.BlockWork{
				VecFlops: t * taps * 2,
				IntOps:   t * taps * 2,
				// Streaming reads: each thread's window overlaps its
				// neighbor's, so per block roughly (blockDim + taps)
				// fresh input elements plus the coefficient vector (which
				// stays cached) and blockDim outputs.
				Bytes: (t + taps + t) * 4,
			}
		})

	p := &Program{
		Name:          "FIR",
		Kernel:        "fir",
		Source:        firSrc,
		SIMDFraction:  1.0, // the thread loop vectorizes; taps loop is a reduction per lane
		GPUComputeEff: 0.85,
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"n": 16384 * firBlock, "taps": 131072},
		WeakKey:       "n",
		Small:         Params{"n": 2000, "taps": 32},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		n, taps := pr.Get("n"), pr.Get("taps")
		in, out, coeff := virtualBuf(kir.F32, n+taps), virtualBuf(kir.F32, n), virtualBuf(kir.F32, taps)
		return core.LaunchSpec{
			Kernel: "fir",
			Grid:   interp.Dim1(ceilDiv(n, firBlock)),
			Block:  interp.Dim1(firBlock),
			Args: []core.Arg{
				core.BufArg(in), core.BufArg(out), core.BufArg(coeff),
				core.IntArg(int64(n)), core.IntArg(int64(taps)),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n, taps := pr.Get("n"), pr.Get("taps")
		rng := rand.New(rand.NewSource(2))
		ins := make([]float32, n+taps)
		for i := range ins {
			ins[i] = rng.Float32() - 0.5
		}
		cf := make([]float32, taps)
		for i := range cf {
			cf[i] = rng.Float32() * 0.1
		}
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			var sum float32
			for t := 0; t < taps; t++ {
				sum += cf[t] * ins[i+t]
			}
			want[i] = sum
		}
		return dataSet{bufs: [][]byte{f32Bytes(ins), nil, f32Bytes(cf)}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		n := pr.Get("n")
		blocks := ceilDiv(n, firBlock)
		tail := int64(n - (blocks-1)*firBlock)
		return trafficOwner0(blocks, nodes, firBlock, tail, 4)
	}
	return p
}
