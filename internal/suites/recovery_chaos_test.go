package suites

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
	"cucc/internal/trace"
	"cucc/internal/transport"
)

// Rank-loss chaos: a deterministic kill fault crashes one rank mid-launch
// (at a seeded transport op of that rank's own program order).  Under an
// enabled recovery policy the launch must complete anyway — checkpoint
// restore, re-partition over the survivors, replay — with every node's heap
// bitwise identical to a fault-free run, and the recovery instrumentation
// (stats.Restores, recovery.restores counter, PhaseRecovery span, the fault
// layer's kill count) must prove the recovery path actually ran rather than
// a silent fault-free rerun.

type recoveryResult struct {
	heaps [][]byte
	stats *core.Stats
	snap  metrics.Snapshot
	evs   []trace.Event
	kills int64
}

// recoveryRun is recoveryRunN on four nodes.
func recoveryRun(t *testing.T, p *Program, fc *transport.FaultConfig, pol recovery.Policy) (*recoveryResult, error) {
	t.Helper()
	return recoveryRunN(t, p, 4, fc, pol)
}

// recoveryRunN launches one program on a fresh cluster with the given fault
// config and recovery policy, returning per-node heap snapshots and the run's
// instrumentation.
func recoveryRunN(t *testing.T, p *Program, nodes int, fc *transport.FaultConfig, pol recovery.Policy) (*recoveryResult, error) {
	t.Helper()
	reg := metrics.New()
	c, err := cluster.New(cluster.Config{
		Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 5 * time.Second,
		Fault:       fc,
		Metrics:     reg,
		Recovery:    pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	inst, err := p.Build(c, p.Small)
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(c, p.Compiled)
	sess.Verify = true
	sess.Trace = trace.New()
	done := make(chan error, 1)
	var stats *core.Stats
	go func() {
		st, err := sess.Launch(inst.Spec)
		stats = st
		done <- err
	}()
	select {
	case err := <-done:
		res := &recoveryResult{
			stats: stats,
			snap:  reg.Snapshot(),
			evs:   sess.Trace.Events(),
			kills: c.Faults().Kills,
		}
		if err != nil {
			return res, err
		}
		if err := inst.Check(); err != nil {
			t.Fatalf("completed run failed its checker: %v", err)
		}
		for r := 0; r < nodes; r++ {
			all := cluster.Buffer{Off: 0, Elem: kir.U8, Count: c.BytesPerNode()}
			res.heaps = append(res.heaps, append([]byte(nil), c.Region(r, all)...))
		}
		return res, nil
	case <-time.After(60 * time.Second):
		t.Fatalf("%s hung under rank-loss injection", p.Name)
		return nil, nil
	}
}

// killAt returns a fault config whose only fault is a deterministic crash
// of rank 1 at its op-th transport operation.
func killAt(op int) *transport.FaultConfig {
	return &transport.FaultConfig{Seed: 1, KillRank: 1, KillAtOp: op}
}

func hasPhase(evs []trace.Event, phase string) bool {
	for _, ev := range evs {
		if ev.Phase == phase {
			return true
		}
	}
	return false
}

// TestChaosRankLossRecoversBitwiseIdentical kills rank 1 at a seeded
// transport op during the Allgather and requires the recovered run to be
// indistinguishable, heap-for-heap on every node, from a fault-free run.
func TestChaosRankLossRecoversBitwiseIdentical(t *testing.T) {
	pol := recovery.Policy{Enabled: true}
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			ref, err := recoveryRun(t, p, &transport.FaultConfig{Seed: 1}, recovery.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			if !ref.stats.Distributed || ref.stats.CommMsgs == 0 {
				t.Skipf("%s does not exercise the distributed Allgather at Small scale", p.Name)
			}
			got, err := recoveryRun(t, p, killAt(2), pol)
			if err != nil {
				t.Fatalf("rank loss must be recovered, got %v", err)
			}
			// Prove the recovery path ran: the kill fired, a restore was
			// counted in stats and the registry, the lost node was
			// attributed, and the trace carries the recovery span.
			if got.kills == 0 {
				t.Fatal("kill fault never fired; test proved nothing")
			}
			if got.stats.Restores < 1 {
				t.Fatalf("stats.Restores = %d, want >= 1", got.stats.Restores)
			}
			if len(got.stats.LostNodes) != 1 || got.stats.LostNodes[0] != 1 {
				t.Errorf("stats.LostNodes = %v, want [1]", got.stats.LostNodes)
			}
			if n := got.snap.Counters[recovery.MetricRestores]; n < 1 {
				t.Errorf("%s = %d, want >= 1", recovery.MetricRestores, n)
			}
			if n := got.snap.Counters[recovery.MetricRepartitions]; n < 1 {
				t.Errorf("%s = %d, want >= 1 (start-cursor replay re-partitions)", recovery.MetricRepartitions, n)
			}
			if n := got.snap.Counters[recovery.MetricCheckpoints]; n < 1 {
				t.Errorf("%s = %d, want >= 1", recovery.MetricCheckpoints, n)
			}
			if n := got.snap.Counters[recovery.MetricRejoins]; n != 1 {
				t.Errorf("%s = %d, want 1", recovery.MetricRejoins, n)
			}
			if !hasPhase(got.evs, trace.PhaseRecovery) {
				t.Error("trace has no recovery span")
			}
			// Bitwise identity on every node, including the repaired one.
			for r := range got.heaps {
				if !bytes.Equal(ref.heaps[r], got.heaps[r]) {
					t.Errorf("node %d heap differs from fault-free run after recovery", r)
				}
			}
		})
	}
}

// TestChaosRankLossStartCheckpointSuffices: Transpose at 8 nodes has no
// callback blocks, so a fault-free launch takes the start checkpoint only.
// That one copy must be all recovery needs: rank 1 killed mid-Allgather still
// recovers to bitwise identity on every node.
func TestChaosRankLossStartCheckpointSuffices(t *testing.T) {
	p := Transpose()
	pol := recovery.Policy{Enabled: true}
	ref, err := recoveryRunN(t, p, 8, &transport.FaultConfig{Seed: 1}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if ref.stats.CallbackBlocks != 0 || ref.stats.CommMsgs == 0 {
		t.Fatalf("want a gathered launch without callbacks, got %d callback blocks, %d msgs", ref.stats.CallbackBlocks, ref.stats.CommMsgs)
	}
	if n := ref.snap.Counters[recovery.MetricCheckpoints]; n != 1 {
		t.Errorf("fault-free launch without callbacks: %s = %d, want 1", recovery.MetricCheckpoints, n)
	}
	got, err := recoveryRunN(t, p, 8, killAt(2), pol)
	if err != nil {
		t.Fatalf("rank loss must be recovered, got %v", err)
	}
	if got.kills == 0 || got.stats.Restores < 1 {
		t.Fatalf("recovery path not exercised: %d kills, %d restores", got.kills, got.stats.Restores)
	}
	for r := range got.heaps {
		if !bytes.Equal(ref.heaps[r], got.heaps[r]) {
			t.Errorf("node %d heap differs from fault-free run after recovery", r)
		}
	}
}

// TestChaosRankLossWithoutRecoveryFailsCleanly pins the pre-recovery
// contract: with the policy disabled the same kill fails the launch with
// the crash cause intact (transport.ErrKilled survives the error chain) and
// never hangs.
func TestChaosRankLossWithoutRecoveryFailsCleanly(t *testing.T) {
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			ref, err := recoveryRun(t, p, &transport.FaultConfig{Seed: 1}, recovery.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			if !ref.stats.Distributed || ref.stats.CommMsgs == 0 {
				t.Skipf("%s does not exercise the distributed Allgather at Small scale", p.Name)
			}
			got, err := recoveryRun(t, p, killAt(2), recovery.Policy{})
			if err == nil {
				t.Fatal("kill with recovery disabled must fail the launch")
			}
			if !errors.Is(err, transport.ErrKilled) {
				t.Errorf("crash cause lost: %v", err)
			}
			if got.snap.Counters[recovery.MetricRestores] != 0 {
				t.Error("restore counted with recovery disabled")
			}
		})
	}
}

// TestChaosRankLossPolicyLimits: a MinRanks floor above the survivor count
// makes the same failure unrecoverable — the launch fails with the cause
// intact instead of replaying below the floor.
func TestChaosRankLossPolicyLimits(t *testing.T) {
	p := VecAdd()
	ref, err := recoveryRun(t, p, &transport.FaultConfig{Seed: 1}, recovery.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.stats.Distributed || ref.stats.CommMsgs == 0 {
		t.Skip("VecAdd not distributed at Small scale")
	}
	got, err := recoveryRun(t, p, killAt(2), recovery.Policy{Enabled: true, MinRanks: 4})
	if err == nil {
		t.Fatal("recovery below MinRanks must fail")
	}
	if !errors.Is(err, transport.ErrKilled) {
		t.Errorf("crash cause lost: %v", err)
	}
	if got.snap.Counters[recovery.MetricRestores] != 0 {
		t.Error("restore counted despite MinRanks floor")
	}
}

// accumSrc reads the buffer it writes: y[i] += x[i] over a y that starts all
// zero, so the start checkpoint records y by its length alone.
const accumSrc = `
__global__ void accum(float* x, float* y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n)
        y[i] = y[i] + x[i];
}
`

// TestChaosRankLossRestoresElidedRegion: the replay of a read-modify-write
// kernel sees whatever the restore left in y, so rank loss mid-Allgather
// recovers to the fault-free heaps only if the restore writes the zeros the
// checkpoint elided.  The suite kernels overwrite their whole output, so a
// replay of theirs would hide a restore that skipped the region.
func TestChaosRankLossRestoresElidedRegion(t *testing.T) {
	prog := core.MustCompile(accumSrc)
	const nodes, n = 4, 4000
	run := func(fc *transport.FaultConfig) ([][]byte, *core.Stats, int64) {
		c, err := cluster.New(cluster.Config{
			Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
			RecvTimeout: 5 * time.Second, Fault: fc, Recovery: recovery.Policy{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(i%97) + 0.5
		}
		x, y := c.Alloc(kir.F32, n), c.Alloc(kir.F32, n)
		if err := c.WriteAllF32(x, xs); err != nil {
			t.Fatal(err)
		}
		stats, err := core.NewSession(c, prog).Launch(core.LaunchSpec{
			Kernel: "accum", Grid: interp.Dim1(16), Block: interp.Dim1(256),
			Args: []core.Arg{core.BufArg(x), core.BufArg(y), core.IntArg(n)},
		})
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		for r := 0; r < nodes; r++ {
			for i, v := range c.ReadF32(r, y) {
				if v != xs[i] {
					t.Fatalf("node %d: y[%d] = %v, want %v", r, i, v, xs[i])
				}
			}
		}
		var heaps [][]byte
		for r := 0; r < nodes; r++ {
			all := cluster.Buffer{Off: 0, Elem: kir.U8, Count: c.BytesPerNode()}
			heaps = append(heaps, append([]byte(nil), c.Region(r, all)...))
		}
		return heaps, stats, c.Faults().Kills
	}
	ref, refStats, _ := run(&transport.FaultConfig{Seed: 1})
	if !refStats.Distributed || refStats.CommMsgs == 0 {
		t.Fatal("accum must gather y across the nodes")
	}
	got, stats, kills := run(killAt(2))
	if kills == 0 || stats.Restores < 1 {
		t.Fatalf("recovery path not exercised: %d kills, %d restores", kills, stats.Restores)
	}
	for r := range got {
		if !bytes.Equal(ref[r], got[r]) {
			t.Errorf("node %d heap differs from fault-free run after recovery", r)
		}
	}
}
