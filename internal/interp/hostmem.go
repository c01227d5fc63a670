package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"cucc/internal/kir"
)

// HostMem is a single-address-space Memory implementation used for
// reference (non-distributed) kernel execution, mirroring single-CPU
// migration where GPU global memory maps to the process heap.
type HostMem struct {
	bufs    map[int]*HostBuffer
	atomics AtomicShards
}

var _ AtomicMemory = (*HostMem)(nil)

// HostBuffer is one typed linear buffer.
type HostBuffer struct {
	Elem kir.ScalarType
	Data []byte
}

// NewHostMem returns an empty host memory.
func NewHostMem() *HostMem {
	return &HostMem{bufs: map[int]*HostBuffer{}}
}

// Bind attaches a buffer to a pointer-parameter index.
func (h *HostMem) Bind(param int, b *HostBuffer) { h.bufs[param] = b }

// Buffer returns the buffer bound to param.
func (h *HostMem) Buffer(param int) *HostBuffer { return h.bufs[param] }

// NewF32Buffer builds a buffer from float32 data.
func NewF32Buffer(data []float32) *HostBuffer {
	b := &HostBuffer{Elem: kir.F32, Data: make([]byte, 4*len(data))}
	for i, v := range data {
		binary.LittleEndian.PutUint32(b.Data[4*i:], math.Float32bits(v))
	}
	return b
}

// NewI32Buffer builds a buffer from int32 data.
func NewI32Buffer(data []int32) *HostBuffer {
	b := &HostBuffer{Elem: kir.I32, Data: make([]byte, 4*len(data))}
	for i, v := range data {
		binary.LittleEndian.PutUint32(b.Data[4*i:], uint32(v))
	}
	return b
}

// NewU8Buffer builds a buffer from bytes (copied).
func NewU8Buffer(data []byte) *HostBuffer {
	b := &HostBuffer{Elem: kir.U8, Data: make([]byte, len(data))}
	copy(b.Data, data)
	return b
}

// ZeroBuffer builds a zero-filled buffer of n elements.
func ZeroBuffer(elem kir.ScalarType, n int) *HostBuffer {
	return &HostBuffer{Elem: elem, Data: make([]byte, n*elem.Size())}
}

// F32 decodes the buffer as float32 values.
func (b *HostBuffer) F32() []float32 {
	out := make([]float32, len(b.Data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out
}

// I32 decodes the buffer as int32 values.
func (b *HostBuffer) I32() []int32 {
	out := make([]int32, len(b.Data)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out
}

// Count returns the number of elements.
func (b *HostBuffer) Count() int { return len(b.Data) / b.Elem.Size() }

func (h *HostMem) buf(param int) *HostBuffer {
	b, ok := h.bufs[param]
	if !ok {
		panic(fmt.Sprintf("interp: no buffer bound to param %d", param))
	}
	return b
}

// Len implements Memory.
func (h *HostMem) Len(param int) int { return h.buf(param).Count() }

// RawBytes implements RawMemory.
func (h *HostMem) RawBytes(param int) []byte { return h.buf(param).Data }

// AtomicShard implements AtomicMemory.
func (h *HostMem) AtomicShard(param, idx int) *sync.Mutex {
	return h.atomics.Shard(param, idx)
}

// LoadF32 implements Memory.
func (h *HostMem) LoadF32(param, idx int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(h.buf(param).Data[4*idx:]))
}

// StoreF32 implements Memory.
func (h *HostMem) StoreF32(param, idx int, v float32) {
	binary.LittleEndian.PutUint32(h.buf(param).Data[4*idx:], math.Float32bits(v))
}

// LoadI32 implements Memory.
func (h *HostMem) LoadI32(param, idx int) int32 {
	return int32(binary.LittleEndian.Uint32(h.buf(param).Data[4*idx:]))
}

// StoreI32 implements Memory.
func (h *HostMem) StoreI32(param, idx int, v int32) {
	binary.LittleEndian.PutUint32(h.buf(param).Data[4*idx:], uint32(v))
}

// LoadU8 implements Memory.
func (h *HostMem) LoadU8(param, idx int) byte { return h.buf(param).Data[idx] }

// StoreU8 implements Memory.
func (h *HostMem) StoreU8(param, idx int, v byte) { h.buf(param).Data[idx] = v }

// ExecGrid executes every block of the launch sequentially against the
// launch memory through one Runner; the reference path for correctness
// checks.
func ExecGrid(l *Launch) (Work, error) {
	r, err := NewRunner(l)
	if err != nil {
		return Work{}, err
	}
	var total Work
	for by := 0; by < max(l.Grid.Y, 1); by++ {
		for bx := 0; bx < l.Grid.X; bx++ {
			w, err := r.ExecBlock(bx, by)
			if err != nil {
				return total, err
			}
			total.Add(w)
		}
	}
	return total, nil
}
