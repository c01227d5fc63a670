package suites

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
)

// journalRun executes one program at Small scale with the given journal
// scope wired through both the session (launch-path events) and the cluster
// (abort/regroup events), returning the stats and every node's full heap.
func journalRun(t *testing.T, p *Program, n int, sc obs.Scope) (*core.Stats, [][]byte) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes: n, Machine: machine.Intel6226(), Net: simnet.IB100(),
		Journal: sc,
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
	sess.Obs = sc
	stats, err := sess.Launch(inst.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	heaps := make([][]byte, n)
	all := cluster.Buffer{Off: 0, Elem: kir.U8, Count: c.BytesPerNode()}
	for r := 0; r < n; r++ {
		heaps[r] = append([]byte(nil), c.Region(r, all)...)
	}
	return stats, heaps
}

// TestJournalNeverMovesFigures: the event journal on vs off changes nothing
// observable about the computation — not one simulated figure, not one byte
// of any node's memory.  The journal analogue of
// TestMetricsNeverMoveFigures.
func TestJournalNeverMovesFigures(t *testing.T) {
	const n = 4
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			off, offHeaps := journalRun(t, p, n, obs.Scope{})
			j := obs.NewJournal(0)
			on, onHeaps := journalRun(t, p, n, obs.Scope{J: j, Tenant: "suite", Job: 1})
			if !reflect.DeepEqual(off, on) {
				t.Errorf("stats diverge:\n  off: %+v\n  on:  %+v", off, on)
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(offHeaps[r], onHeaps[r]) {
					t.Errorf("node %d heap differs between journaled and unjournaled runs", r)
				}
			}
			// The journaled run must actually have recorded the launch.
			if j.Len() == 0 {
				t.Error("journaled run recorded no events")
			}
			for _, ev := range j.Events() {
				if ev.Tenant != "suite" || ev.Job != 1 {
					t.Errorf("event not stamped with the scope identity: %+v", ev)
				}
			}
		})
	}
}

// TestCheckpointJournalMatchesCounter: every checkpoint capture is counted
// and journaled in the same place, so recovery.checkpoints and the event
// stream tell the same story — one capture (@start) per launch, whether or
// not callback blocks run after the gather.
func TestCheckpointJournalMatchesCounter(t *testing.T) {
	for _, tc := range []struct {
		p         *Program
		callbacks bool
		want      []string
	}{
		{VecAdd(), true, []string{"@start"}},     // 20 blocks: a tail block and a remainder
		{Transpose(), false, []string{"@start"}}, // 512 blocks over 4 nodes, none left over
	} {
		t.Run(tc.p.Name, func(t *testing.T) {
			reg := metrics.New()
			sc := obs.Scope{J: obs.NewJournal(0), Tenant: "suite", Job: 1}
			c, err := cluster.New(cluster.Config{
				Nodes: 4, Machine: machine.Intel6226(), Net: simnet.IB100(),
				Metrics: reg, Journal: sc, Recovery: recovery.Policy{Enabled: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			inst, err := tc.p.Build(c, tc.p.Small)
			if err != nil {
				t.Fatal(err)
			}
			sess := core.NewSession(c, tc.p.Compiled)
			sess.Obs = sc
			stats, err := sess.Launch(inst.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.CallbackBlocks > 0; got != tc.callbacks {
				t.Fatalf("launch has %d callback blocks; the case assumes otherwise", stats.CallbackBlocks)
			}
			var details []string
			for _, ev := range sc.J.Events() {
				if ev.Phase == obs.EvCheckpoint {
					details = append(details, ev.Detail)
				}
			}
			if n := reg.Snapshot().Counters[recovery.MetricCheckpoints]; n != int64(len(details)) || len(details) != len(tc.want) {
				t.Fatalf("%s = %d, journal has %d checkpoint events %q, want %d", recovery.MetricCheckpoints, n, len(details), details, len(tc.want))
			}
			for i, want := range tc.want {
				if !strings.Contains(details[i], want) {
					t.Errorf("checkpoint event %d is %q, want one %s", i, details[i], want)
				}
			}
		})
	}
}
