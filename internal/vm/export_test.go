package vm

import "cucc/internal/kir"

// ForceAllUniform is the mutation-test seam: while on, the classifier calls
// every written slot a batch scalar, which is wrong for any slot that varies
// across threads.  Kernels compiled meanwhile are broken on purpose; callers
// compile fresh *kir.Kernel values (a compiled program lives on its kernel)
// and switch it off again.
func ForceAllUniform(on bool) { forceUniform = on }

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
