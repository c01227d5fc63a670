package cluster

import "fmt"

// Engine selects which IR execution engine the runtime uses for kernels
// without a native implementation.  There are two: the lane-batched
// register machine (internal/vm) is the production engine; the
// thread-serial reference interpreter (internal/interp) is retained as the
// semantic oracle for differential testing.  EngineVM and EngineVMLanes are two accepted names
// for the register machine (tenants and the benchmark send both) and differ
// only in which core.blocks.* counter a launch reports under.
type Engine uint8

const (
	// EngineDefault is the unset value: a launch whose session leaves
	// Host.Engine at it runs EngineVMLanes.
	EngineDefault Engine = iota
	// EngineVM is the register machine under its older name; it runs the
	// same loop as EngineVMLanes.
	EngineVM
	// EngineInterp runs kernels on the reference interpreter: compiled once
	// to Go closures, one thread after another.
	EngineInterp
	// EngineVMLanes runs kernels on the compile-once register machine: one
	// opcode dispatch drives a warp-style batch of threads in lockstep over
	// structure-of-arrays register slabs.
	EngineVMLanes
)

func (e Engine) String() string {
	switch e {
	case EngineVM:
		return "vm"
	case EngineInterp:
		return "interp"
	case EngineVMLanes:
		return "vm-lanes"
	default:
		return "default"
	}
}

// ParseEngine parses a -engine flag value.  The empty string selects
// EngineDefault.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default":
		return EngineDefault, nil
	case "vm":
		return EngineVM, nil
	case "interp":
		return EngineInterp, nil
	case "vm-lanes":
		return EngineVMLanes, nil
	default:
		return EngineDefault, fmt.Errorf("cluster: unknown engine %q (want vm, vm-lanes, or interp)", s)
	}
}
