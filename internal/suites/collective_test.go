package suites

import (
	"bytes"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/machine"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// The collective equivalence tests pin the ISSUE 7 acceptance criterion:
// the schedule executor must leave node memories bitwise identical to the
// legacy hand-written ring (AllgatherRing/AllgatherVRing) across all three
// engines and under benign transport faults, for every schedule the
// compiler can emit.

// collectiveRun is engineRun with a collective choice layered on the
// cluster config.
func collectiveRun(t *testing.T, p *Program, eng cluster.Engine, nodes int, fc *transport.FaultConfig, choice csched.Choice) []byte {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 5 * time.Second,
		Fault:       fc,
		Engine:      eng,
		Collective:  choice,
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
	if _, err := sess.Launch(inst.Spec); err != nil {
		t.Fatalf("engine %s, choice %s, %d nodes: %v", eng, choice, nodes, err)
	}
	if err := inst.Check(); err != nil {
		t.Fatalf("engine %s, choice %s, %d nodes: checker: %v", eng, choice, nodes, err)
	}
	return heapSnapshot(c)
}

func collectiveChoices(t *testing.T) []csched.Choice {
	t.Helper()
	var out []csched.Choice
	for _, s := range []string{"auto", "ring", "recdouble", "twolevel", "pipeline", "auto+overlap", "pipeline:2+overlap"} {
		ch, err := csched.ParseChoice(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch)
	}
	return out
}

// TestCollectiveEquivalenceAcrossEngines: for every program and engine,
// every schedule heap must match the legacy-ring heap bitwise on four
// nodes (composite, exercises two-level and recursive doubling).
func TestCollectiveEquivalenceAcrossEngines(t *testing.T) {
	choices := collectiveChoices(t)
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			for _, eng := range []cluster.Engine{cluster.EngineInterp, cluster.EngineVMLanes} {
				ref := collectiveRun(t, p, eng, 4, nil, csched.Choice{})
				for _, choice := range choices {
					got := collectiveRun(t, p, eng, 4, nil, choice)
					if !bytes.Equal(ref, got) {
						t.Errorf("engine %s choice %s: heap differs from legacy ring", eng, choice)
					}
				}
			}
		})
	}
}

// TestCollectiveEquivalenceUnderBenignFaults repeats the comparison under
// the chaos tests' benign fault schedule: delayed and duplicated frames
// must not open any gap between the schedule executor and the legacy ring.
func TestCollectiveEquivalenceUnderBenignFaults(t *testing.T) {
	benign := &transport.FaultConfig{
		Seed: 1, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond,
	}
	choices := collectiveChoices(t)
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			ref := collectiveRun(t, p, cluster.EngineInterp, 4, benign, csched.Choice{})
			for _, choice := range choices {
				got := collectiveRun(t, p, cluster.EngineVMLanes, 4, benign, choice)
				if !bytes.Equal(ref, got) {
					t.Errorf("choice %s: heap differs from legacy ring under benign faults", choice)
				}
			}
		})
	}
}
