package suites

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/comm"
	"cucc/internal/core"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// The suites-level metrics tests enforce the two invariants of the
// observability layer on the real evaluation programs:
//
//  1. Instrumentation never moves a simulated figure: a fully metered run
//     produces bitwise-identical node memories and identical Stats to a run
//     with metrics disabled.
//  2. The accounting cross-checks: the transport-level counters (recorded
//     by the metered decorator beneath the comm layer's bookkeeping), the
//     per-collective comm.* counters, and the summed per-node comm.Stats
//     all agree — including under injected transient send failures, where
//     only operations that actually completed may count.

// metricsRun executes one program at Small scale and returns the stats,
// every node's full heap, and the cluster.
func metricsRun(t *testing.T, p *Program, n int, reg *metrics.Registry, fc *transport.FaultConfig) (*core.Stats, [][]byte, *cluster.Cluster) {
	t.Helper()
	cfg := cluster.Config{
		Nodes: n, Machine: machine.Intel6226(), Net: simnet.IB100(),
		Metrics: reg, Fault: fc,
	}
	if fc != nil {
		cfg.RecvTimeout = 5 * time.Second
	}
	c, err := cluster.New(cfg)
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
	return stats, heaps, c
}

// TestMetricsNeverMoveFigures: metrics on vs off changes nothing observable
// about the computation — not one simulated figure, not one byte of any
// node's memory.
func TestMetricsNeverMoveFigures(t *testing.T) {
	const n = 4
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			off, offHeaps, _ := metricsRun(t, p, n, nil, nil)
			reg := metrics.New()
			on, onHeaps, _ := metricsRun(t, p, n, reg, nil)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("stats diverge:\n  off: %+v\n  on:  %+v", off, on)
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(offHeaps[r], onHeaps[r]) {
					t.Errorf("node %d heap differs between metered and unmetered runs", r)
				}
			}
			// The metered run must actually have recorded the launch, and
			// — when the launch communicated at all — its traffic.  (A few
			// programs move zero Allgather bytes at Small scale.)
			s := reg.Snapshot()
			if s.Counters["core.launch.total"] == 0 {
				t.Error("metered run recorded no launches")
			}
			if on.CommMsgs > 0 && s.Counters[transport.MetricSendMsgs] == 0 {
				t.Error("metered run recorded no traffic despite CommMsgs > 0")
			}
		})
	}
}

// sumNodeComm adds up every node's comm.Stats.
func sumNodeComm(c *cluster.Cluster) comm.Stats {
	var total comm.Stats
	for r := 0; r < c.N(); r++ {
		total.Add(c.Node(r).Comm)
	}
	return total
}

// commOpTotal sums one field (".msgs", ".bytes_sent", ...) across all
// comm.<op>.* counters in a snapshot.
func commOpTotal(s metrics.Snapshot, suffix string) int64 {
	var total int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "comm.") && strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// checkCrossCheck asserts the three independently recorded accountings of
// one cluster's traffic agree.
func checkCrossCheck(t *testing.T, c *cluster.Cluster, s metrics.Snapshot) {
	t.Helper()
	total := sumNodeComm(c)
	if total.Msgs != total.Recvs || total.BytesSent != total.BytesRecvd {
		t.Errorf("summed node Stats asymmetric: %+v", total)
	}
	type check struct {
		name string
		got  int64
		want int64
	}
	for _, ck := range []check{
		{transport.MetricSendMsgs, s.Counters[transport.MetricSendMsgs], total.Msgs},
		{transport.MetricSendBytes, s.Counters[transport.MetricSendBytes], total.BytesSent},
		{transport.MetricRecvMsgs, s.Counters[transport.MetricRecvMsgs], total.Recvs},
		{transport.MetricRecvBytes, s.Counters[transport.MetricRecvBytes], total.BytesRecvd},
		{"comm.*.msgs", commOpTotal(s, ".msgs"), total.Msgs},
		{"comm.*.bytes_sent", commOpTotal(s, ".bytes_sent"), total.BytesSent},
		{"comm.*.recvs", commOpTotal(s, ".recvs"), total.Recvs},
		{"comm.*.bytes_recvd", commOpTotal(s, ".bytes_recvd"), total.BytesRecvd},
	} {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d (summed node Stats)", ck.name, ck.got, ck.want)
		}
	}
}

// TestMetricsCrossCheck: on a clean transport, registry counters at both
// levels equal the summed per-node Stats for every evaluation program.
func TestMetricsCrossCheck(t *testing.T) {
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			reg := metrics.New()
			st, _, c := metricsRun(t, p, 4, reg, nil)
			s := reg.Snapshot()
			checkCrossCheck(t, c, s)
			// A launch that sets no collective and gathers anything (a few
			// programs gather nothing at Small scale) runs csched's ring.
			if calls := s.Counters["comm.sched_ring.calls"]; st.CommMsgs > 0 && (st.CollectiveAlgo != "ring" || calls == 0) {
				t.Errorf("default launch selected %q and made %d comm.sched_ring calls, want the ring schedule", st.CollectiveAlgo, calls)
			}
		})
	}
}

// TestMetricsCrossCheckUnderFaults: with transient send failures that are
// retried beneath the meter (plus delays and duplicates absorbed by the
// envelope), a completed run's accounting still balances on all three
// levels — each message counts exactly once, however many attempts or
// copies the fault layer produced.
func TestMetricsCrossCheckUnderFaults(t *testing.T) {
	fc := &transport.FaultConfig{
		Seed:         42,
		SendFail:     0.2,
		Delay:        0.2,
		Duplicate:    0.2,
		MaxDelay:     200 * time.Microsecond,
		MaxRetries:   16,
		RetryBackoff: 10 * time.Microsecond,
	}
	for _, p := range []*Program{VecAdd(), FIR(), Transpose()} {
		t.Run(p.Name, func(t *testing.T) {
			reg := metrics.New()
			_, _, c := metricsRun(t, p, 4, reg, fc)
			checkCrossCheck(t, c, reg.Snapshot())
			// The schedule must actually have injected something, or the
			// test is vacuous.
			if f := c.Faults(); f == nil || f.SendFailures+f.Duplicates+f.Delays == 0 {
				t.Error("fault schedule injected nothing")
			}
		})
	}
}
