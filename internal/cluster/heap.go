package cluster

import (
	"math/bits"
	"sync"
)

// Node heaps are backed lazily and recycled.  Alloc only reserves address
// space (heapEnd); the first access that needs bytes commits every node's
// heap at the current heapEnd in one step, from slabs taken off a
// process-wide free list, and Close puts the slabs back.  A job that
// allocates k buffers therefore pays one slab per node, and in steady state
// that slab is one an earlier job released.

// slabPools is the free list: slabPools[k] holds slabs of capacity 1<<k.
// sync.Pool drops idle entries across GC cycles, so retention follows the
// collector and there is nothing to size.
var slabPools [bits.UintSize]sync.Pool

// errUseAfterClose is what Alloc and every memory access panic with once
// Close has given the node heaps back.
const errUseAfterClose = "cluster: use after Close"

// getSlab returns a slab with room for n >= 1 bytes and whether it is fresh
// from the allocator (all zero) rather than recycled (arbitrary contents).
func getSlab(n int) (slab *[]byte, fresh bool) {
	k := bits.Len(uint(n - 1))
	if s, ok := slabPools[k].Get().(*[]byte); ok {
		return s, false
	}
	s := make([]byte, 1<<k)
	return &s, true
}

func putSlab(slab *[]byte) {
	slabPools[bits.Len(uint(cap(*slab)-1))].Put(slab)
}

// LendArena lends n >= 1 bytes of scratch from the slab free list the node
// heaps recycle through, as a slab of at least n bytes whose contents are
// arbitrary.  Give it back with ReturnArena once nothing can read it any
// more; a slab that is never returned is left to the collector.  A heap that
// later commits the slab clears what it exposes, as it does for any
// recycled slab.
func (c *Cluster) LendArena(n int) *[]byte {
	slab, _ := getSlab(n)
	return slab
}

// ReturnArena puts a slab LendArena lent back on the free list.
func (c *Cluster) ReturnArena(slab *[]byte) { putSlab(slab) }

// heap returns node r's committed memory, with length and capacity exactly
// heapEnd, so indexing or slicing past the last allocation panics instead of
// reaching the uncleared rest of the slab.  Ranks call this concurrently
// (Region from inside RunParallel); the check is one atomic load once the
// heap is committed.
func (c *Cluster) heap(r int) []byte {
	c.commit(0, 0)
	return c.nodes[r].mem
}

// commit backs every node's heap at the current heapEnd, if it is not
// already.  Bytes a node already holds are preserved; every newly exposed
// byte reads zero — a recycled slab is cleared over exactly the range being
// exposed, which is what keeps Alloc's zero-initialisation and tenant
// isolation intact — except those in [skipLo, skipHi), which the caller
// promises to overwrite on every node before anything can read them.  Only
// broadcast passes a non-empty range: the bytes a WriteAll* is about to fill.
func (c *Cluster) commit(skipLo, skipHi int) {
	if c.backed.Load() == int64(c.heapEnd) {
		return
	}
	c.heapMu.Lock()
	defer c.heapMu.Unlock()
	end, backed := c.heapEnd, int(c.backed.Load())
	if backed < 0 {
		panic(errUseAfterClose)
	}
	if backed == end {
		return // another rank committed while this one waited
	}
	for _, n := range c.nodes {
		old := len(n.mem)
		slab, dirty := n.slab, true
		if slab == nil || end > cap(*slab) {
			// An outgrown slab goes to the collector, not the free list:
			// Region slices handed out before the growth may still alias it.
			var fresh bool
			slab, fresh = getSlab(end)
			copy(*slab, n.mem)
			dirty = !fresh
		}
		n.slab, n.mem = slab, (*slab)[:end:end]
		if dirty {
			if skipLo > old {
				clear(n.mem[old:skipLo])
			}
			clear(n.mem[max(skipHi, old):])
		}
	}
	c.backed.Store(int64(end))
}

// releaseHeaps returns every node's slab to the free list and reports
// whether this was the first call.  Afterwards the cluster is closed: no
// node holds memory and any access through heap panics.
func (c *Cluster) releaseHeaps() bool {
	c.heapMu.Lock()
	defer c.heapMu.Unlock()
	if c.backed.Swap(-1) < 0 {
		return false
	}
	for _, n := range c.nodes {
		if n.slab != nil {
			putSlab(n.slab)
		}
		n.slab, n.mem = nil, nil
	}
	return true
}
