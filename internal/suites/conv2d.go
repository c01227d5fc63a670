package suites

import (
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const conv2dSrc = `
__global__ void conv2d(float* in, float* out, float* kern, int tiles, int cin) {
    int w = tiles * blockDim.x;
    int row = blockIdx.x;
    for (int t = 0; t < tiles; t++) {
        int col = t * blockDim.x + threadIdx.x;
        float sum = 0.0f;
        for (int ci = 0; ci < cin; ci++) {
            for (int ky = 0; ky < 5; ky++) {
                for (int kx = 0; kx < 5; kx++) {
                    sum += kern[ci * 25 + ky * 5 + kx] * in[(ci * (gridDim.x + 4) + row + ky) * (w + 4) + col + kx];
                }
            }
        }
        out[row * w + col] = sum;
    }
}
`

const conv2dBlock = 256

// Conv2D applies a 5x5 multi-channel stencil over a padded image, one
// output row per block: the compute-heavy convolution shape of AI
// workloads, with high arithmetic intensity and plenty of blocks.
func Conv2D() *Program {
	prog := core.MustCompile(conv2dSrc)
	native(prog, "conv2d",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			in, out, kern := b[0], b[1], b[2]
			tiles := int(args[3].I)
			cin := int(args[4].I)
			w := tiles * block.X
			h := grid.X
			row := bx
			for t := 0; t < tiles; t++ {
				for tx := 0; tx < block.X; tx++ {
					col := t*block.X + tx
					var sum float32
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < 5; ky++ {
							for kx := 0; kx < 5; kx++ {
								sum += f32(kern, ci*25+ky*5+kx) *
									f32(in, (ci*(h+4)+row+ky)*(w+4)+col+kx)
							}
						}
					}
					setF32(out, row*w+col, sum)
				}
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			w := float64(int(args[3].I) * block.X)
			cin := float64(args[4].I)
			return machine.BlockWork{
				VecFlops: w * cin * 50,
				IntOps:   w * cin * 30,
				// Adjacent rows are shared with neighboring blocks; the
				// compulsory traffic is about one padded input row per
				// channel plus the output row.
				Bytes: (cin*(w+4) + w) * 4,
			}
		})

	p := &Program{
		Name:          "Conv2D",
		Kernel:        "conv2d",
		Source:        conv2dSrc,
		SIMDFraction:  1.0,
		GPUComputeEff: 0.85,
		GPUMemEff:     0.8,
		Compiled:      prog,
		Default:       Params{"tiles": 4, "h": 1024, "cin": 1024}, // 1024x1024x1024
		WeakKey:       "h",
		Small:         Params{"tiles": 1, "h": 8, "cin": 2},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		tiles, h, cin := pr.Get("tiles"), pr.Get("h"), pr.Get("cin")
		w := tiles * conv2dBlock
		in, out, kern := virtualBuf(kir.F32, cin*(h+4)*(w+4)), virtualBuf(kir.F32, h*w), virtualBuf(kir.F32, cin*25)
		return core.LaunchSpec{
			Kernel: "conv2d",
			Grid:   interp.Dim1(h),
			Block:  interp.Dim1(conv2dBlock),
			Args: []core.Arg{
				core.BufArg(in), core.BufArg(out), core.BufArg(kern),
				core.IntArg(int64(tiles)), core.IntArg(int64(cin)),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		w := pr.Get("tiles") * conv2dBlock
		h := pr.Get("h")
		cin := pr.Get("cin")
		rng := rand.New(rand.NewSource(7))
		img := make([]float32, cin*(h+4)*(w+4))
		for i := range img {
			img[i] = rng.Float32()
		}
		kn := make([]float32, cin*25)
		for i := range kn {
			kn[i] = rng.Float32() * 0.05
		}
		want := make([]float32, h*w)
		for r := 0; r < h; r++ {
			for cc := 0; cc < w; cc++ {
				var sum float32
				for ci := 0; ci < cin; ci++ {
					for ky := 0; ky < 5; ky++ {
						for kx := 0; kx < 5; kx++ {
							sum += kn[ci*25+ky*5+kx] * img[(ci*(h+4)+r+ky)*(w+4)+cc+kx]
						}
					}
				}
				want[r*w+cc] = sum
			}
		}
		return dataSet{bufs: [][]byte{f32Bytes(img), nil, f32Bytes(kn)}, want: f32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		w := pr.Get("tiles") * conv2dBlock
		h := pr.Get("h")
		return trafficOwner0(h, nodes, int64(w), int64(w), 4)
	}
	return p
}
