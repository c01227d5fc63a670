package vm

// ForceAllUniform is the mutation-test seam: while on, the classifier calls
// every written slot a batch scalar, which is wrong for any slot that varies
// across threads.  Kernels compiled meanwhile are broken on purpose; callers
// compile fresh *kir.Kernel values (the cache is keyed by identity) and
// switch it off again.
func ForceAllUniform(on bool) { forceUniform = on }
