package suites

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/machine"
	"cucc/internal/pgas"
	"cucc/internal/simnet"
)

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := newClusterN(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newClusterN is newCluster for callers off the test goroutine, who close it
// themselves.
func newClusterN(n int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Nodes: n, Machine: machine.Intel6226(), Net: simnet.IB100()})
}

func allWithVecAdd() []*Program {
	return append([]*Program{VecAdd()}, All()...)
}

// TestAllProgramsDistributable verifies the compiler analysis accepts every
// evaluation program (they were all chosen from the paper's distributable
// set).
func TestAllProgramsDistributable(t *testing.T) {
	for _, p := range allWithVecAdd() {
		md := p.Compiled.Meta[p.Kernel]
		if md == nil || !md.Distributable {
			t.Errorf("%s: not distributable: %s", p.Name, md.Summary())
		}
	}
}

// TestTailDivergenceClassification checks which programs have bound checks.
func TestTailDivergenceClassification(t *testing.T) {
	wantTail := map[string]bool{
		"VecAdd": true, "FIR": true, "Kmeans": true, "EP": true,
		"Transpose": false, "BinomialOption": false, "GA": false,
		"MatMul": false, "Conv2D": false,
	}
	for _, p := range allWithVecAdd() {
		md := p.Compiled.Meta[p.Kernel]
		if md.TailDivergent != wantTail[p.Name] {
			t.Errorf("%s: TailDivergent = %v, want %v", p.Name, md.TailDivergent, wantTail[p.Name])
		}
	}
}

// TestDistributedCorrectness executes every program (native backend) on
// several cluster sizes, verifying the output against the Go reference and
// the cross-node consistency invariant.
func TestDistributedCorrectness(t *testing.T) {
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 4} {
				c := newCluster(t, n)
				inst, err := p.Build(c, p.Small)
				if err != nil {
					t.Fatal(err)
				}
				sess := core.NewSession(c, p.Compiled)
				sess.Verify = true
				if _, err := sess.Launch(inst.Spec); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if err := inst.Check(); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

// elemOnly hides everything but interp.Memory's element accessors — RawBytes
// in particular — the way a memory that intercepts accesses does.
type elemOnly struct{ interp.Memory }

// hostRun executes every block of p's native at Small scale against a
// HostMem holding the generated inputs, seen through wrap, and returns each
// buffer argument's bytes.
func hostRun(t *testing.T, p *Program, wrap func(*interp.HostMem) interp.Memory) [][]byte {
	t.Helper()
	nat, ok := p.Compiled.Native(p.Kernel)
	if !ok {
		t.Fatalf("%s has no native", p.Name)
	}
	return hostExec(t, p, wrap, func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3) error {
		for by := 0; by < grid.Y; by++ {
			for bx := 0; bx < grid.X; bx++ {
				if err := nat.RunBlock(mem, args, grid, block, bx, by); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// interpHostRun is hostRun with the reference interpreter's ExecGrid in
// place of the native.
func interpHostRun(t *testing.T, p *Program, wrap func(*interp.HostMem) interp.Memory) [][]byte {
	t.Helper()
	k := p.Compiled.Kernel(p.Kernel)
	return hostExec(t, p, wrap, func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3) error {
		_, err := interp.ExecGrid(&interp.Launch{Kernel: k, Grid: grid, Block: block, Args: args, Mem: mem})
		return err
	})
}

// hostExec runs exec over a HostMem holding p's Small inputs, seen through
// wrap, and returns each buffer argument's bytes.
func hostExec(t *testing.T, p *Program, wrap func(*interp.HostMem) interp.Memory,
	exec func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3) error) [][]byte {
	t.Helper()
	spec, d := p.Spec(p.Small), p.gen(p.Small)
	host := interp.NewHostMem()
	args := make([]interp.Value, len(spec.Args))
	var snaps [][]byte
	for i, a := range spec.Args {
		if !a.IsBuf {
			args[i] = a.Val
			continue
		}
		data := make([]byte, a.Buf.Bytes())
		copy(data, d.bufs[len(snaps)])
		host.Bind(i, &interp.HostBuffer{Elem: a.Buf.Elem, Data: data})
		snaps = append(snaps, data)
	}
	if err := exec(wrap(host), args, spec.Grid, spec.Block); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestInterpMatchesNative cross-validates the native backend against the
// reference interpreter on the same workload: through a session on node
// memory, and on a HostMem — the interpreter both with and without the raw
// bytes exposed, reading rows in place or going element by element as it
// does under the PGAS view.
func TestInterpMatchesNative(t *testing.T) {
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			run := func(useInterp bool) [][]byte {
				c := newCluster(t, 2)
				inst, err := p.Build(c, p.Small)
				if err != nil {
					t.Fatal(err)
				}
				inst.Spec.UseInterp = useInterp
				sess := core.NewSession(c, p.Compiled)
				sess.Host.Engine = cluster.EngineInterp
				sess.Verify = true
				if _, err := sess.Launch(inst.Spec); err != nil {
					t.Fatal(err)
				}
				if err := inst.Check(); err != nil {
					t.Fatal(err)
				}
				var snaps [][]byte
				for _, a := range inst.Spec.Args {
					if a.IsBuf {
						region := c.Region(0, *a.Buf)
						snap := make([]byte, len(region))
						copy(snap, region)
						snaps = append(snaps, snap)
					}
				}
				return snaps
			}
			itp := run(true)
			for name, nat := range map[string][][]byte{
				"node memory":                   run(false),
				"host memory":                   hostRun(t, p, func(h *interp.HostMem) interp.Memory { return h }),
				"interp on host memory":         interpHostRun(t, p, func(h *interp.HostMem) interp.Memory { return h }),
				"interp on element-only memory": interpHostRun(t, p, func(h *interp.HostMem) interp.Memory { return elemOnly{h} }),
			} {
				for i := range itp {
					if !bytes.Equal(nat[i], itp[i]) {
						t.Errorf("%s: buffer %d differs between native and interpreter", name, i)
					}
				}
			}
		})
	}
}

// TestNativeRejectsElementOnlyMemory: a native indexes byte rows, so on a
// memory without them every block is an error naming the native, and no
// buffer is touched.
func TestNativeRejectsElementOnlyMemory(t *testing.T) {
	for _, p := range allWithVecAdd() {
		nat, _ := p.Compiled.Native(p.Kernel)
		var runErr error
		snaps := hostExec(t, p, func(h *interp.HostMem) interp.Memory { return elemOnly{h} },
			func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3) error {
				runErr = nat.RunBlock(mem, args, grid, block, 0, 0)
				return nil
			})
		if runErr == nil || !strings.Contains(runErr.Error(), "native "+p.Kernel) {
			t.Errorf("%s: RunBlock on element-only memory = %v, want an error naming the native", p.Name, runErr)
		}
		for i, want := range hostExec(t, p, func(h *interp.HostMem) interp.Memory { return h },
			func(interp.Memory, []interp.Value, interp.Dim3, interp.Dim3) error { return nil }) {
			if !bytes.Equal(snaps[i], want) {
				t.Errorf("%s: buffer %d written by a rejected block", p.Name, i)
			}
		}
	}
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestEstimateMatchesLaunch verifies that the cost-model-only path returns
// the same statistics as real execution (the property that justifies
// paper-scale sweeps via Estimate), for every program on 1-5 nodes under
// every collective family, both remainder strategies, and ForceTrivial.
// The launch shape and phase times agree exactly; only the overlapped clock
// (a difference of close values) and the measured per-block average (rank
// 0's summed work divided back by its block count) may differ by round-off.
func TestEstimateMatchesLaunch(t *testing.T) {
	for _, p := range allWithVecAdd() {
		t.Run(p.Name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 4, 5} {
				for _, coll := range []string{"", "+overlap", "auto", "auto+overlap"} {
					choice, err := csched.ParseChoice(coll)
					if err != nil {
						t.Fatal(err)
					}
					for _, rem := range []core.RemainderStrategy{core.RemainderCallback, core.RemainderImbalanced} {
						for _, trivial := range []bool{false, true} {
							c := newCluster(t, n)
							inst, err := p.Build(c, p.Small)
							if err != nil {
								t.Fatal(err)
							}
							inst.Spec.Remainder, inst.Spec.ForceTrivial = rem, trivial
							sess := core.NewSession(c, p.Compiled)
							sess.Collective = choice
							got, err := sess.Estimate(inst.Spec)
							if err != nil {
								t.Fatal(err)
							}
							want, err := sess.Launch(inst.Spec)
							if err != nil {
								t.Fatal(err)
							}
							name := fmt.Sprintf("n=%d %q remainder=%d trivial=%v", n, coll, rem, trivial)
							checkEstimate(t, name, got, want, choice.Overlap)
						}
					}
				}
			}
		})
	}
}

// checkEstimate holds an Estimate to the Launch it models, at the
// tolerances TestEstimateMatchesLaunch documents.
func checkEstimate(t *testing.T, name string, got, want *core.Stats, overlap bool) {
	t.Helper()
	if got.Distributed != want.Distributed || got.TailDivergent != want.TailDivergent ||
		!slices.Equal(got.BlocksByNode, want.BlocksByNode) || got.BlocksPerNode != want.BlocksPerNode ||
		got.CallbackBlocks != want.CallbackBlocks || got.CommBytesPerNode != want.CommBytesPerNode ||
		got.CommMsgs != want.CommMsgs || got.CollectiveAlgo != want.CollectiveAlgo {
		t.Errorf("%s: shape differs:\n  Estimate %+v\n  Launch   %+v", name, got, want)
	}
	for _, f := range []struct {
		field     string
		got, want float64
	}{{"Phase1Sec", got.Phase1Sec, want.Phase1Sec}, {"CommSec", got.CommSec, want.CommSec}, {"CallbackSec", got.CallbackSec, want.CallbackSec}} {
		if f.got != f.want {
			t.Errorf("%s: %s = %v, Launch %v", name, f.field, f.got, f.want)
		}
	}
	totalTol := 0.0
	if overlap {
		totalTol = 1e-15
	}
	for _, f := range []struct {
		field     string
		got, want float64
		tol       float64
	}{
		{"TotalSec", got.TotalSec, want.TotalSec, totalTol},
		{"OverlapSec", got.OverlapSec, want.OverlapSec, 1e-12},
		{"Work.VecFlops", got.Work.VecFlops, want.Work.VecFlops, 1e-15},
		{"Work.SerialFlops", got.Work.SerialFlops, want.Work.SerialFlops, 1e-15},
		{"Work.IntOps", got.Work.IntOps, want.Work.IntOps, 1e-15},
		{"Work.Bytes", got.Work.Bytes, want.Work.Bytes, 1e-15},
	} {
		if rel := relDiff(f.got, f.want); rel > f.tol {
			t.Errorf("%s: %s = %v, Launch %v (relative %.2g > %.0g)", name, f.field, f.got, f.want, rel, f.tol)
		}
	}
}

// TestTrafficModelMatchesMeasured validates each program's analytic PGAS
// traffic model against the instrumented PGAS execution.
func TestTrafficModelMatchesMeasured(t *testing.T) {
	for _, p := range allWithVecAdd() {
		if p.Traffic == nil {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			for _, n := range []int{2, 3, 4} {
				c := newCluster(t, n)
				inst, err := p.Build(c, p.Small)
				if err != nil {
					t.Fatal(err)
				}
				sess := pgas.NewSession(c, p.Compiled)
				res, err := sess.Run(inst.Spec)
				if err != nil {
					t.Fatal(err)
				}
				tr := p.Traffic(p.Small, n)
				if res.MaxRankPuts != tr.Puts {
					t.Errorf("n=%d: measured max-rank puts %d, model %d", n, res.MaxRankPuts, tr.Puts)
				}
				if res.IncastPuts != tr.IncastPuts {
					t.Errorf("n=%d: measured incast %d, model %d", n, res.IncastPuts, tr.IncastPuts)
				}
				if res.LocalOps != tr.LocalOps {
					t.Errorf("n=%d: measured rank-0 local ops %d, model %d", n, res.LocalOps, tr.LocalOps)
				}
			}
		})
	}
}

// TestPGASOutputsCorrect validates the PGAS baseline produces the right
// answers (assembled from owners).
func TestPGASOutputsCorrect(t *testing.T) {
	// VecAdd output is the third buffer; check via assembled bytes of a
	// CuCC run on one node.
	p := VecAdd()
	ref := func() []byte {
		c := newCluster(t, 1)
		inst, err := p.Build(c, p.Small)
		if err != nil {
			t.Fatal(err)
		}
		sess := core.NewSession(c, p.Compiled)
		if _, err := sess.Launch(inst.Spec); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), c.Region(0, *inst.Spec.Args[2].Buf)...)
	}()
	for _, policy := range []pgas.Policy{pgas.OwnerRank0, pgas.BlockDistributed} {
		c := newCluster(t, 3)
		inst, err := p.Build(c, p.Small)
		if err != nil {
			t.Fatal(err)
		}
		sess := pgas.NewSession(c, p.Compiled)
		sess.Policy = policy
		if _, err := sess.Run(inst.Spec); err != nil {
			t.Fatal(err)
		}
		got := sess.Assemble(*inst.Spec.Args[2].Buf)
		if !bytes.Equal(got, ref) {
			t.Errorf("policy %d: PGAS output differs from reference", policy)
		}
	}
}

// TestDefaultWorkloadsEstimate sanity-checks paper-scale workloads through
// the cost model: no errors, plausible positive times, distribution on.
func TestDefaultWorkloadsEstimate(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			for _, n := range []int{1, 4, 32} {
				c := newCluster(t, n)
				sess := core.NewSession(c, p.Compiled)
				st, err := sess.Estimate(p.Spec(p.Default))
				if err != nil {
					t.Fatal(err)
				}
				if st.TotalSec <= 0 {
					t.Errorf("n=%d: non-positive time", n)
				}
				if n > 1 && !st.Distributed {
					t.Errorf("n=%d: not distributed", n)
				}
			}
		})
	}
}

// TestKmeansPaperBlockCount pins the paper's 313-block configuration.
func TestKmeansPaperBlockCount(t *testing.T) {
	p := Kmeans()
	spec := p.Spec(p.Default)
	if spec.Grid.X != 313 {
		t.Errorf("Kmeans default grid = %d blocks, want 313", spec.Grid.X)
	}
	for name, want := range map[string]int{"EP": 512, "GA": 256, "BinomialOption": 1024} {
		for _, p := range All() {
			if p.Name == name {
				if got := p.Spec(p.Default).Grid.X; got != want {
					t.Errorf("%s default grid = %d blocks, want %d", name, got, want)
				}
			}
		}
	}
}
