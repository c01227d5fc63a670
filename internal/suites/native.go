package suites

import (
	"encoding/binary"
	"fmt"
	"math"

	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/machine"
)

// rows is a block's view of global memory: rows[p] is the raw little-endian
// bytes of the buffer bound to pointer parameter p (nil for scalar
// parameters).  Three covers every registry kernel, whose pointer parameters
// all come first.
type rows [3][]byte

// native registers body as kernel's native implementation.  Per block, body
// gets each pointer parameter's backing bytes, fetched once, and indexes them
// directly — no interface call per element.  Natives run only on node
// memory, which has byte rows.  On a memory without them (one that
// intercepts element accesses, like the PGAS view, which runs kernels on the
// interpreter) a block is an error.
func native(prog *core.Program, kernel string,
	body func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int),
	work func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork) {
	k := prog.Kernel(kernel)
	must(prog.RegisterNative(kernel, core.Native{
		RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
			rm, ok := mem.(interp.RawMemory)
			if !ok {
				return fmt.Errorf("suites: native %s: memory %T has no byte rows", kernel, mem)
			}
			var b rows
			for p, prm := range k.Params {
				if prm.Pointer {
					b[p] = rm.RawBytes(p)
				}
			}
			body(b, args, grid, block, bx, by)
			return nil
		},
		BlockWork: work,
	}))
}

func f32(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

func setF32(b []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
}

func setI32(b []byte, i int, v int32) {
	binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
}
