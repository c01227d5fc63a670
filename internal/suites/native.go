package suites

import (
	"encoding/binary"
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
// directly — no interface call per element.  A memory that cannot expose its
// bytes (one that intercepts element accesses, like the PGAS view) is served
// by the interpreter instead, the one implementation of every kernel that
// goes through interp.Memory element by element; natives are required to be
// bitwise identical to it, so the caller cannot tell.
func native(prog *core.Program, kernel string,
	body func(b rows, args []interp.Value, grid, block interp.Dim3, bx, by int),
	work func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork) {
	k := prog.Kernel(kernel)
	must(prog.RegisterNative(kernel, core.Native{
		RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
			rm, ok := mem.(interp.RawMemory)
			if !ok {
				_, err := interp.ExecBlock(&interp.Launch{Kernel: k, Grid: grid, Block: block, Args: args, Mem: mem}, bx, by)
				return err
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
