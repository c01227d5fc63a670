package suites

import (
	"bytes"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/machine"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// The engine equivalence tests pin the ISSUE 3 contract: the lane-batched
// register machine (internal/vm) and the reference interpreter must leave
// node memories bitwise identical on every evaluation program, single- and
// multi-node, with and without benign transport faults.  The interpreter is
// the oracle; any divergence is a vm bug.

// engineRun executes one program at Small scale on a fresh n-node cluster
// under the given engine, forcing the IR path (natives would mask the engine
// entirely), and returns node 0's full heap after the checker passes.
func engineRun(t *testing.T, p *Program, eng cluster.Engine, nodes int, fc *transport.FaultConfig) []byte {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 5 * time.Second,
		Fault:       fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inst, err := p.Build(c, p.Small)
	if err != nil {
		t.Fatal(err)
	}
	inst.Spec.UseInterp = true
	sess := core.NewSession(c, p.Compiled)
	sess.Host.Engine = eng
	if _, err := sess.Launch(inst.Spec); err != nil {
		t.Fatalf("engine %s, %d nodes: %v", eng, nodes, err)
	}
	if err := inst.Check(); err != nil {
		t.Fatalf("engine %s, %d nodes: checker: %v", eng, nodes, err)
	}
	return heapSnapshot(c)
}

// TestEngineEquivalence: register-machine and interp heaps must match
// bitwise on every program, on one node and across four.
func TestEngineEquivalence(t *testing.T) {
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			for _, nodes := range []int{1, 4} {
				ref := engineRun(t, p, cluster.EngineInterp, nodes, nil)
				got := engineRun(t, p, cluster.EngineVMLanes, nodes, nil)
				if !bytes.Equal(ref, got) {
					t.Errorf("%d nodes: vm-lanes heap differs from interp heap", nodes)
				}
			}
		})
	}
}

// TestEngineEquivalenceUnderBenignFaults repeats the multi-node comparison
// under the benign fault schedule of the chaos tests: delayed and duplicated
// frames must not open any gap between the engines.
func TestEngineEquivalenceUnderBenignFaults(t *testing.T) {
	benign := &transport.FaultConfig{
		Seed: 1, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond,
	}
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			ref := engineRun(t, p, cluster.EngineInterp, 4, benign)
			got := engineRun(t, p, cluster.EngineVMLanes, 4, benign)
			if !bytes.Equal(ref, got) {
				t.Error("vm-lanes heap differs from interp heap under benign faults")
			}
		})
	}
}
