package core

import (
	"errors"
	"fmt"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
	"cucc/internal/trace"
)

const indexGatherSrc = `
__global__ void index_gather(float* out, float* in, int* idx) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    out[id] = in[idx[id]];
}
`

// TestBlockFaultIsNotRankLoss: a kernel fault is a deterministic error, not
// a crashed rank.  With recovery on, 63 blocks of 4 threads on 4 nodes
// partition as 15 blocks per node plus callbacks 60-62; one index out of
// range in block 3 (node 0's phase-1 range) or in callback block 62 must
// fail the launch at once — no restore, no re-partition onto the next owner
// of the block — with the error attributed to the node that ran it.
func TestBlockFaultIsNotRankLoss(t *testing.T) {
	prog := MustCompile(indexGatherSrc)
	const blocks, threads, nodes = 63, 4, 4
	for _, tc := range []struct {
		block int
		coll  string
	}{{3, ""}, {3, "+overlap"}, {62, ""}, {62, "+overlap"}} {
		t.Run(fmt.Sprintf("block%d%s", tc.block, tc.coll), func(t *testing.T) {
			reg := metrics.New()
			j := obs.NewJournal(0)
			c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
				Metrics: reg, Recovery: recovery.Policy{Enabled: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const n = blocks * threads
			out, in, idx := c.Alloc(kir.F32, n), c.Alloc(kir.F32, n), c.Alloc(kir.I32, n)
			iv := make([]int32, n)
			for i := range iv {
				iv[i] = int32(i)
			}
			iv[tc.block*threads+1] = n + 1000
			if err := c.WriteAll(idx, interp.NewI32Buffer(iv).Data); err != nil {
				t.Fatal(err)
			}
			sess := NewSession(c, prog)
			sess.Obs = obs.Scope{J: j}
			sess.Trace = trace.New()
			if sess.Collective, err = csched.ParseChoice(tc.coll); err != nil {
				t.Fatal(err)
			}
			_, err = sess.Launch(LaunchSpec{Kernel: "index_gather", Grid: interp.Dim1(blocks), Block: interp.Dim1(threads),
				Args: []Arg{BufArg(out), BufArg(in), BufArg(idx)}})
			if err == nil {
				t.Fatal("launch with an out-of-range index succeeded")
			}
			if got := reg.Snapshot().Counters[recovery.MetricRestores]; got != 0 {
				t.Errorf("%s = %d, want 0: %v", recovery.MetricRestores, got, err)
			}
			for _, ev := range j.Events() {
				if ev.Phase == obs.EvRankLoss || ev.Phase == obs.EvRestore {
					t.Errorf("journal has a %s event: %s", ev.Phase, ev.Detail)
				}
			}
			for _, ev := range sess.Trace.Events() {
				if ev.Phase == trace.PhaseRecovery {
					t.Errorf("trace has a recovery span: %s", ev.Detail)
				}
			}
			// Node 0 owns block 3, and every node runs the callbacks.
			var ne *cluster.NodeError
			if !errors.As(err, &ne) || ne.Node != 0 {
				t.Errorf("error is not attributed to node 0: %v", err)
			}
		})
	}
}
