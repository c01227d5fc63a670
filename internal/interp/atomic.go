package interp

import "sync"

// NumAtomicShards is the number of locks an AtomicShards set spreads
// global-memory atomics over.  Power of two so the shard index is a mask;
// large enough that a 64-bin histogram rarely collides two bins on one lock.
const NumAtomicShards = 64

// AtomicShards is a fixed set of sharded mutexes serializing atomic
// read-modify-write operations on one memory space.  Shards are selected by
// (param, element index), so atomics to different elements almost always
// take different locks and an atomics-heavy kernel (histogram) does not
// serialize behind a single mutex when blocks execute concurrently.
//
// The zero value is ready to use.
type AtomicShards struct {
	mus [NumAtomicShards]sync.Mutex
}

// Shard returns the mutex guarding atomic RMW on element idx of the buffer
// bound to param.
func (s *AtomicShards) Shard(param, idx int) *sync.Mutex {
	// Fibonacci-style multiplicative hash over the flattened key; the
	// param multiplier keeps adjacent buffers from aliasing shard 0.
	h := uint64(param)*0x9e3779b97f4a7c15 + uint64(uint(idx))*0x85ebca6b
	return &s.mus[(h>>16)&(NumAtomicShards-1)]
}

// AtomicMemory is a Memory whose backend provides sharded locks serializing
// atomic read-modify-write on its global buffers.  The interpreter requires
// this capability whenever GPU blocks of one launch may execute concurrently
// on the same memory (the intra-node worker pool in internal/core); the
// threads of one block never run concurrently.
//
// Node memories (internal/cluster) and HostMem implement it.  It is optional
// for the interpreter: backends that never run blocks concurrently (e.g.
// the PGAS baseline) may omit it and then take no lock.  The register
// machine (internal/vm) requires it.
type AtomicMemory interface {
	Memory
	// AtomicShard returns the lock guarding atomic RMW on element idx of
	// the buffer bound to param.
	AtomicShard(param, idx int) *sync.Mutex
}
