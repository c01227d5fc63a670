package suites

import (
	"bytes"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// The collective equivalence tests pin the paper's central claim on every
// schedule the compiler can emit, the zero Choice's ring included: after
// the Allgather, node memories are bitwise identical to the oracle's (the
// interpreter on one node), on both engines and under benign transport
// faults.

// collectiveRun is engineRun with a collective choice set on the session;
// it returns every node's heap, not only node 0's.
func collectiveRun(t *testing.T, p *Program, eng cluster.Engine, nodes int, fc *transport.FaultConfig, choice csched.Choice) [][]byte {
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
	sess.Collective = choice
	if _, err := sess.Launch(inst.Spec); err != nil {
		t.Fatalf("engine %s, choice %s, %d nodes: %v", eng, choice, nodes, err)
	}
	if err := inst.Check(); err != nil {
		t.Fatalf("engine %s, choice %s, %d nodes: checker: %v", eng, choice, nodes, err)
	}
	all := cluster.Buffer{Off: 0, Elem: kir.U8, Count: c.BytesPerNode()}
	heaps := make([][]byte, nodes)
	for r := range heaps {
		heaps[r] = append([]byte(nil), c.Region(r, all)...)
	}
	return heaps
}

func collectiveChoices(t *testing.T) []csched.Choice {
	t.Helper()
	var out []csched.Choice
	for _, s := range []string{"", "+overlap", "auto", "ring", "recdouble", "twolevel", "pipeline", "auto+overlap", "pipeline:2+overlap"} {
		ch, err := csched.ParseChoice(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch)
	}
	return out
}

// TestCollectiveEquivalenceAcrossEngines: for every program and engine,
// every schedule heap on four nodes (composite, exercises two-level and
// recursive doubling) must match the 1-node interpreter's heap bitwise.
func TestCollectiveEquivalenceAcrossEngines(t *testing.T) {
	choices := collectiveChoices(t)
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			oracle := engineRun(t, p, cluster.EngineInterp, 1, nil)
			for _, eng := range []cluster.Engine{cluster.EngineInterp, cluster.EngineVMLanes} {
				for _, choice := range choices {
					for r, got := range collectiveRun(t, p, eng, 4, nil, choice) {
						if !bytes.Equal(oracle, got) {
							t.Errorf("engine %s choice %s: node %d heap differs from the 1-node interpreter", eng, choice, r)
						}
					}
				}
			}
		})
	}
}

// TestAutoScheduleNeverWorseThanRing: at paper scale on 8 and 32 nodes, the
// cost model's pick (auto) and auto with phase-3 overlap never estimate a
// slower launch than the zero choice's ring, and overlap never hides more
// than the whole Allgather.
func TestAutoScheduleNeverWorseThanRing(t *testing.T) {
	estimate := func(p *Program, nodes int, s string) *core.Stats {
		t.Helper()
		choice, err := csched.ParseChoice(s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess := core.NewSession(c, p.Compiled)
		sess.Collective = choice
		st, err := sess.Estimate(p.Spec(p.Default))
		if err != nil {
			t.Fatalf("%s @%d nodes, choice %q: %v", p.Name, nodes, s, err)
		}
		return st
	}
	compared := 0
	for _, p := range Registry() {
		for _, nodes := range []int{8, 32} {
			ring := estimate(p, nodes, "")
			if !ring.Distributed || ring.CommSec == 0 {
				continue // no phase 2, nothing to choose
			}
			compared++
			floor := ring.TotalSec - ring.CommSec
			for _, s := range []string{"auto", "auto+overlap"} {
				st := estimate(p, nodes, s)
				if st.TotalSec > ring.TotalSec*(1+1e-9) {
					t.Errorf("%s @%d nodes: %s (%s) total %.9gs, worse than the ring's %.9gs",
						p.Name, nodes, s, st.CollectiveAlgo, st.TotalSec, ring.TotalSec)
				}
				if s == "auto+overlap" && st.TotalSec < floor {
					t.Errorf("%s @%d nodes: %s total %.9gs below the free-Allgather floor %.9gs",
						p.Name, nodes, s, st.TotalSec, floor)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no program has a phase 2 at paper scale")
	}
}

// TestCollectiveEquivalenceUnderBenignFaults repeats the comparison under
// the chaos tests' benign fault schedule: delayed and duplicated frames
// must not open any gap between the schedule executor and the oracle.
func TestCollectiveEquivalenceUnderBenignFaults(t *testing.T) {
	benign := &transport.FaultConfig{
		Seed: 1, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond,
	}
	choices := collectiveChoices(t)
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			oracle := engineRun(t, p, cluster.EngineInterp, 1, nil)
			for _, choice := range choices {
				for r, got := range collectiveRun(t, p, cluster.EngineVMLanes, 4, benign, choice) {
					if !bytes.Equal(oracle, got) {
						t.Errorf("choice %s: node %d heap differs from the 1-node interpreter under benign faults", choice, r)
					}
				}
			}
		})
	}
}
