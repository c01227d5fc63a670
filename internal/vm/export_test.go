package vm

import "cucc/internal/kir"

// ForceAllUniform is the mutation-test seam: while on, the classifier calls
// every written slot a batch scalar, which is wrong for any slot that varies
// across threads.  Kernels compiled meanwhile are broken on purpose; callers
// compile fresh *kir.Kernel values (the cache is keyed by identity) and
// switch it off again.
func ForceAllUniform(on bool) { forceUniform = on }

// SetCompileCacheCap changes the cache bound (n <= 0 means unbounded) and
// returns the previous bound.  Shrinking evicts immediately.
func SetCompileCacheCap(n int) int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	prev := cache.cap
	cache.cap = n
	cache.evictLocked()
	return prev
}

// StaticOps counts the instructions of k's compiled program whose opcode
// has the given profile name.
func StaticOps(k *kir.Kernel, name string) (int, error) {
	p, err := Compile(k)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, in := range p.code {
		if in.op.String() == name {
			n++
		}
	}
	return n, nil
}
