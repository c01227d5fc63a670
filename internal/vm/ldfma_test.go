package vm_test

import (
	"fmt"
	"math"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/vm"
)

// ld_fma, the accumulate `slot += s * x[idx + off]` as one instruction,
// against the interpreter: heap, Work and error text, for each of the
// multiply-add's four operand orders with NaN operands, on a dense batch and
// a divergent subset, with an out-of-bounds lane inside a dense batch, and on
// a memory with no raw view.

// accumulateSrc is the accumulate under a guard (%[1]s, empty or an if) in an
// operand order (%[2]s): c is a batch scalar, x[id * 4 + j] the per-lane load
// with a batch-scalar offset, acc the slot.  Each thread reads its own four
// elements of x.
const accumulateSrc = `
__global__ void fz(float* out, float* x, float* cs, float* init, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = init[id];
    for (int j = 0; j < 4; j++) {
        float c = cs[j];
        %[1]s acc = %[2]s;
    }
    out[id] = acc;
}`

// accumulateOrders are the four operand orders: the product on either side
// of the add, the batch scalar on either side of the product.
var accumulateOrders = []string{
	"acc + c * x[id * 4 + j]",
	"c * x[id * 4 + j] + acc",
	"acc + x[id * 4 + j] * c",
	"x[id * 4 + j] * c + acc",
}

const accumulateThreads = 200

// nanBits is a NaN whose payload names i: quiet, signalling or negative by
// i % 3, so a payload that is lost, moved or re-signed shows in the stored
// bits.
func nanBits(i int) float32 {
	switch i % 3 {
	case 0:
		return math.Float32frombits(0x7fc00000 | uint32(i)<<4)
	case 1:
		return math.Float32frombits(0x7f800000 | uint32(i+1))
	default:
		return math.Float32frombits(0xffc00000 | uint32(i)<<8)
	}
}

// accumulateInit fills accumulateSrc's buffers so that every thread's chain
// of adds and products meets at most one NaN: which payload survives when
// two NaNs meet is the Go compiler's choice of operand order for a
// commutative instruction, in the interpreter as much as in the VM, so it is
// not a property either engine has.  With scalar set, the batch scalar is a
// NaN on one iteration; otherwise the accumulator starts as a NaN in every
// thread with id%4 == 1 and one of its loads is a NaN in every thread with
// id%4 == 2.
func accumulateInit(scalar bool) ([]*interp.HostBuffer, []interp.Value) {
	x := make([]float32, 4*accumulateThreads)
	for i := range x {
		x[i] = float32(i%13)*0.375 - 2
	}
	cs := []float32{0.5, -1.25, 3, 0.75}
	init := make([]float32, accumulateThreads)
	for id := range init {
		init[id] = float32(id%7) - 3
		switch {
		case scalar:
		case id%4 == 1:
			init[id] = nanBits(id)
		case id%4 == 2:
			x[4*id+id/4%4] = nanBits(id)
		}
	}
	if scalar {
		cs[2] = nanBits(5)
	}
	return []*interp.HostBuffer{
		interp.ZeroBuffer(kir.F32, accumulateThreads),
		interp.NewF32Buffer(x),
		interp.NewF32Buffer(cs),
		interp.NewF32Buffer(init),
	}, []interp.Value{4: interp.IntV(accumulateThreads)}
}

// elemOnly hides everything but interp.Memory's element accessors —
// RawBytes in particular — the way a memory that intercepts accesses does.
type elemOnly struct{ interp.Memory }

func shapeSrc(name string) string {
	for _, sh := range uniformShapes {
		if sh.name == name {
			return sh.src
		}
	}
	panic("no uniform shape " + name)
}

func TestLdFMAMatchesInterp(t *testing.T) {
	type tc struct {
		name, src string
		init      func() ([]*interp.HostBuffer, []interp.Value)
	}
	var cases []tc
	for i, o := range accumulateOrders {
		for _, nan := range []string{"scalar", "lane"} {
			init := func() ([]*interp.HostBuffer, []interp.Value) { return accumulateInit(nan == "scalar") }
			cases = append(cases,
				tc{fmt.Sprintf("order%d-nan-%s-dense", i, nan), fmt.Sprintf(accumulateSrc, "", o), init},
				tc{fmt.Sprintf("order%d-nan-%s-divergent", i, nan), fmt.Sprintf(accumulateSrc, "if (id % 3 != 1)", o), init})
		}
	}
	cases = append(cases,
		tc{"oob-mid-batch", shapeSrc("accumulate-oob-mid-batch"), fuzzInit},
		tc{"oob-divergent", shapeSrc("accumulate-oob-divergent"), fuzzInit})
	memories := []struct {
		name string
		wrap func(*interp.HostMem) interp.Memory
	}{
		{"raw", nil},
		{"element-only", func(h *interp.HostMem) interp.Memory { return elemOnly{h} }},
	}
	for _, c := range cases {
		mod, err := lang.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", c.name, err, c.src)
		}
		k := mod.Kernels[0]
		if n, err := vm.StaticOps(k, "ld_fma"); err != nil || n == 0 {
			t.Fatalf("%s: compiles to %d ld_fma (%v), want the accumulate fused\n%s", c.name, n, err, c.src)
		}
		init, args := c.init()
		for _, m := range memories {
			// 200 threads are a full batch and a tail at caps 64 and 128,
			// one batch at 256; at 128 and 256 the oob shape's first
			// failing lane (86) sits mid-batch.
			for _, w := range []int{64, 128, 256} {
				t.Run(fmt.Sprintf("%s/%s/w%d", c.name, m.name, w), func(t *testing.T) {
					atLaneWidth(w, func() {
						grid, block := interp.Dim1(1), interp.Dim1(accumulateThreads)
						if d := divergenceOn(k, grid, block, args, init, m.wrap); d != "" {
							t.Fatal(d)
						}
					})
				})
			}
		}
	}
}
