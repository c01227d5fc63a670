package suites

import (
	"math/rand"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
)

const kmeansSrc = `
__global__ void kmeans(float* points, float* centroids, int* membership, int n, int k, int dim) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        int best = 0;
        float bestDist = 1e30f;
        for (int c = 0; c < k; c++) {
            float d = 0.0f;
            for (int j = 0; j < dim; j++) {
                float diff = points[id * dim + j] - centroids[c * dim + j];
                d += diff * diff;
            }
            if (d < bestDist) {
                bestDist = d;
                best = c;
            }
        }
        membership[id] = best;
    }
}
`

const kmeansBlock = 256

// kmeansLanes is how many threads the native runs side by side.
const kmeansLanes = 4

// Kmeans is the cluster-assignment kernel of k-means.  The paper launches
// it with 313 blocks, the configuration behind the §7.2 wave-scheduling
// anomaly (16 -> 32 node slowdown).
func Kmeans() *Program {
	prog := core.MustCompile(kmeansSrc)
	native(prog, "kmeans",
		func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int) {
			points, centroids, membership := b[0], b[1], b[2]
			n := int(args[3].I)
			k := int(args[4].I)
			dim := int(args[5].I)
			end := min((bx+1)*block.X, n)
			// kmeansLanes threads at a time, each with its own distance and
			// argmin: every centroid element is loaded once per group.  A
			// group that runs past end repeats its last live thread in the
			// dead lanes and stores only the live ones.
			for id := bx * block.X; id < end; id += kmeansLanes {
				row := func(l int) []byte { return points[4*dim*min(id+l, end-1):] }
				p0, p1, p2, p3 := row(0), row(1), row(2), row(3)
				var best [kmeansLanes]int32
				bestDist := [kmeansLanes]float32{1e30, 1e30, 1e30, 1e30}
				for c := 0; c < k; c++ {
					var d0, d1, d2, d3 float32
					for j := 0; j < dim; j++ {
						cj := f32(centroids, c*dim+j)
						diff0 := f32(p0, j) - cj
						d0 += diff0 * diff0
						diff1 := f32(p1, j) - cj
						d1 += diff1 * diff1
						diff2 := f32(p2, j) - cj
						d2 += diff2 * diff2
						diff3 := f32(p3, j) - cj
						d3 += diff3 * diff3
					}
					for l, d := range [kmeansLanes]float32{d0, d1, d2, d3} {
						if d < bestDist[l] {
							bestDist[l], best[l] = d, int32(c)
						}
					}
				}
				for l, m := range best[:min(kmeansLanes, end-id)] {
					setI32(membership, id+l, m)
				}
			}
		},
		func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
			t := float64(block.X)
			k := float64(args[4].I)
			dim := float64(args[5].I)
			// The distance loop vectorizes; the argmin update chain does
			// not (the kernel's declared 0.6 vectorizable fraction).
			w := t * k * (dim*3 + 1)
			return machine.BlockWork{
				VecFlops:    w * 0.6,
				SerialFlops: w * 0.4,
				IntOps:      t * k * dim * 2,
				// Points are read once per thread (centroids stay cached).
				Bytes: t*dim*4 + t*4,
			}
		})

	p := &Program{
		Name:          "Kmeans",
		Kernel:        "kmeans",
		Source:        kmeansSrc,
		SIMDFraction:  0.6, // distance loop vectorizes; the argmin update does not
		GPUComputeEff: 0.8,
		GPUMemEff:     0.8,
		Compiled:      prog,
		// 80000 points -> ceil(80000/256) = 313 blocks, the paper's count.
		Default: Params{"n": 80000, "k": 32, "dim": 32},
		WeakKey: "n",
		Small:   Params{"n": 500, "k": 4, "dim": 4},
	}
	p.Spec = func(pr Params) core.LaunchSpec {
		n, k, dim := pr.Get("n"), pr.Get("k"), pr.Get("dim")
		points, centroids, membership := virtualBuf(kir.F32, n*dim), virtualBuf(kir.F32, k*dim), virtualBuf(kir.I32, n)
		return core.LaunchSpec{
			Kernel: "kmeans",
			Grid:   interp.Dim1(ceilDiv(n, kmeansBlock)),
			Block:  interp.Dim1(kmeansBlock),
			Args: []core.Arg{
				core.BufArg(points), core.BufArg(centroids), core.BufArg(membership),
				core.IntArg(int64(n)), core.IntArg(int64(k)), core.IntArg(int64(dim)),
			},
			SIMDFraction: p.SIMDFraction,
		}
	}
	p.gen = func(pr Params) dataSet {
		n, k, dim := pr.Get("n"), pr.Get("k"), pr.Get("dim")
		rng := rand.New(rand.NewSource(3))
		pts := make([]float32, n*dim)
		for i := range pts {
			pts[i] = rng.Float32() * 10
		}
		cent := make([]float32, k*dim)
		for i := range cent {
			cent[i] = rng.Float32() * 10
		}
		want := make([]int32, n)
		for id := 0; id < n; id++ {
			best := int32(0)
			bestDist := float32(1e30)
			for cc := 0; cc < k; cc++ {
				var d float32
				for j := 0; j < dim; j++ {
					diff := pts[id*dim+j] - cent[cc*dim+j]
					d += diff * diff
				}
				if d < bestDist {
					bestDist = d
					best = int32(cc)
				}
			}
			want[id] = best
		}
		return dataSet{bufs: [][]byte{f32Bytes(pts), f32Bytes(cent), nil}, want: i32Bytes(want)}
	}
	p.Traffic = func(pr Params, nodes int) pgas.RankTraffic {
		n := pr.Get("n")
		blocks := ceilDiv(n, kmeansBlock)
		tail := int64(n - (blocks-1)*kmeansBlock)
		return trafficOwner0(blocks, nodes, kmeansBlock, tail, 4)
	}
	return p
}
