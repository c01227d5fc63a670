// Package suites defines the evaluation workloads of the paper:
//
//   - The eight performance programs of §7.2-§7.4 (Transpose, FIR, Kmeans,
//     BinomialOption, EP, GA, MatMul, Conv2D) plus the VecAdd quickstart,
//     each with mini-CUDA source, a native Go backend implementation, an
//     analytic per-block work model, an analytic PGAS traffic model, and a
//     correctness checker.
//   - The coverage suites of §7.1 (Figure 7): 21 Triton-style BERT/ViT
//     kernels and 13 Hetero-Mark-style kernels.
//
// Every program can be built at two scales: Default (paper scale, driven
// through the cost models via core.Session.Estimate) and Small (reduced
// scale, really executed and checked for correctness).  Tests verify that
// the analytic models agree with real execution at small scale.
package suites

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/kir"
	"cucc/internal/pgas"
)

// Params carries a program's workload parameters by name.
type Params map[string]int

func (p Params) clone() Params {
	q := make(Params, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// Get returns a parameter or panics; workload definitions are static, so a
// missing key is a programming error.
func (p Params) Get(key string) int {
	v, ok := p[key]
	if !ok {
		panic(fmt.Sprintf("suites: missing workload parameter %q", key))
	}
	return v
}

// Instance is a built workload on a concrete cluster.
type Instance struct {
	Spec core.LaunchSpec
	// Check validates the program output on node 0 against a Go
	// reference computation.
	Check func() error
}

// Program is one evaluation program.
type Program struct {
	Name   string
	Kernel string
	Source string
	// SIMDFraction is the fraction of kernel flops the CPU backend
	// vectorizes (paper §8.3: transformed GPU code often defeats SIMD).
	SIMDFraction float64
	// GPUComputeEff / GPUMemEff derate the GPU roofline for this kernel
	// class (documented per program).
	GPUComputeEff float64
	GPUMemEff     float64
	// Compiled is the kernel module with the native registered.
	Compiled *core.Program
	// Default is the paper-scale workload; Small is the correctness
	// scale.
	Default Params
	Small   Params

	// Spec builds a launch spec with virtual (unallocated) buffers for
	// cost-model sweeps.
	Spec func(p Params) core.LaunchSpec
	// Build allocates and initializes real buffers on the cluster.
	Build func(c *cluster.Cluster, p Params) (*Instance, error)
	// Traffic is the analytic PGAS traffic model (OwnerRank0 policy) for
	// the pacing rank; nil if the program is not part of the PGAS
	// comparison.
	Traffic func(p Params, nodes int) pgas.RankTraffic
	// WeakKey names the workload parameter that scales linearly with
	// total work, for weak-scaling sweeps ("" = program excluded, e.g.
	// quadratic-size kernels).
	WeakKey string
}

// WeakParams returns the Default workload scaled by factor via WeakKey.
func (p *Program) WeakParams(factor int) Params {
	pr := p.Default.clone()
	pr[p.WeakKey] = pr.Get(p.WeakKey) * factor
	return pr
}

// All returns the eight performance-evaluation programs in figure order.
func All() []*Program {
	return []*Program{
		Transpose(), FIR(), Kmeans(), BinomialOption(),
		EP(), GA(), MatMul(), Conv2D(),
	}
}

// registry memoizes the full program list (VecAdd + the evaluation suite).
// Program construction parses and compiles kernel source, so callers that
// look up programs repeatedly (the serving layer resolves one per job)
// must share one materialization: Program values are read-only at launch
// time and safe to share across concurrent sessions.
var registry struct {
	once  sync.Once
	progs []*Program
}

// Registry returns the shared program list: VecAdd first, then the
// evaluation suite in figure order.  The returned slice is shared; callers
// must not mutate it or the programs.
func Registry() []*Program {
	registry.once.Do(func() {
		registry.progs = append([]*Program{VecAdd()}, All()...)
	})
	return registry.progs
}

// ByName resolves a program by case-insensitive name against Registry.
func ByName(name string) (*Program, bool) {
	for _, p := range Registry() {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return nil, false
}

// ceilDiv is integer ceiling division.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// trafficOwner0 computes the exact PGAS traffic for a kernel whose blocks
// write wpb elements each (tailW for the last block) of elemSize bytes,
// under the OwnerRank0 policy with ceil-split block assignment: rank 0's
// writes are owner-local, every other rank's writes are remote puts into
// rank 0.
func trafficOwner0(blocks, nodes int, wpb, tailW, elemSize int64) pgas.RankTraffic {
	if nodes <= 1 {
		return pgas.RankTraffic{LocalOps: int64(blocks-1)*wpb + tailW}
	}
	perRank := ceilDiv(blocks, nodes)
	writesOf := func(rank int) int64 {
		lo := rank * perRank
		hi := min(lo+perRank, blocks)
		if hi <= lo {
			return 0
		}
		w := int64(hi-lo) * wpb
		if hi == blocks {
			w += tailW - wpb // replace the tail block's contribution
		}
		return w
	}
	var tr pgas.RankTraffic
	tr.LocalOps = writesOf(0)
	total := int64(0)
	for r := 1; r < nodes; r++ {
		w := writesOf(r)
		total += w
		if w > tr.Puts {
			tr.Puts = w
		}
	}
	tr.PutBytes = tr.Puts * elemSize
	tr.IncastPuts = total
	return tr
}

// checkF32 compares node 0's buffer against expected values exactly,
// decoding the node's bytes in place.
func checkF32(c *cluster.Cluster, buf cluster.Buffer, want []float32, name string) func() error {
	return func() error {
		if buf.Count != len(want) {
			return fmt.Errorf("%s: output length %d, want %d", name, buf.Count, len(want))
		}
		raw := c.Region(0, buf)
		for i, w := range want {
			if got := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])); got != w {
				return fmt.Errorf("%s: out[%d] = %g, want %g", name, i, got, w)
			}
		}
		return nil
	}
}

// checkI32 compares node 0's int buffer against expected values.
func checkI32(c *cluster.Cluster, buf cluster.Buffer, want []int32, name string) func() error {
	return func() error {
		if buf.Count != len(want) {
			return fmt.Errorf("%s: output length %d, want %d", name, buf.Count, len(want))
		}
		raw := c.Region(0, buf)
		for i, w := range want {
			if got := int32(binary.LittleEndian.Uint32(raw[4*i:])); got != w {
				return fmt.Errorf("%s: out[%d] = %d, want %d", name, i, got, w)
			}
		}
		return nil
	}
}

// virtualBuf builds a buffer descriptor without allocation, for Estimate
// sweeps.
func virtualBuf(elem kir.ScalarType, count int) cluster.Buffer {
	return cluster.Buffer{Elem: elem, Count: count}
}
