package suites

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
)

// laneRun launches p at pr on a fresh nodes-node cluster, on the native or
// on the interpreter, after letting edit overwrite the inputs (nil leaves
// them as generated, and then node 0's output must also match the Go
// reference).  It returns node 0's buffers, in argument order.
func laneRun(t *testing.T, p *Program, pr Params, nodes int, useInterp bool, edit func(*cluster.Cluster, *Instance)) [][]byte {
	t.Helper()
	c := newCluster(t, nodes)
	inst, err := p.Build(c, pr)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(c, inst)
	}
	inst.Spec.UseInterp = useInterp
	sess := core.NewSession(c, p.Compiled)
	sess.Host.Engine = cluster.EngineInterp
	sess.Verify = true
	if _, err := sess.Launch(inst.Spec); err != nil {
		t.Fatal(err)
	}
	if edit == nil {
		if err := inst.Check(); err != nil {
			t.Fatal(err)
		}
	}
	var bufs [][]byte
	for _, a := range inst.Spec.Args {
		if a.IsBuf {
			bufs = append(bufs, bytes.Clone(c.Region(0, *a.Buf)))
		}
	}
	return bufs
}

// TestLaneEdges: the FIR and Kmeans natives run a block's threads in groups
// of lanes, so every shape where a group is cut short — one thread, less than
// a group, a group and one more, a block less or more one thread, a ragged
// tail after several blocks — must write what the interpreter writes,
// bitwise, on one node and on three.
func TestLaneEdges(t *testing.T) {
	type lanes struct {
		p  *Program
		pr Params
	}
	var cases []lanes
	fir, km := FIR(), Kmeans()
	for _, n := range []int{1, 7, 9, 255, 257, 2001} {
		for _, taps := range []int{1, 5, 32} {
			cases = append(cases, lanes{fir, Params{"n": n, "taps": taps}})
		}
	}
	for _, n := range []int{1, 3, 5, 259} {
		for _, k := range []int{1, 3} {
			for _, dim := range []int{1, 3, 4} {
				cases = append(cases, lanes{km, Params{"n": n, "k": k, "dim": dim}})
			}
		}
	}
	for _, tc := range cases {
		for _, nodes := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%v/%dn", tc.p.Name, tc.pr, nodes), func(t *testing.T) {
				nat := laneRun(t, tc.p, tc.pr, nodes, false, nil)
				if itp := laneRun(t, tc.p, tc.pr, nodes, true, nil); !slices.EqualFunc(nat, itp, bytes.Equal) {
					t.Error("native buffers differ from the interpreter's")
				}
			})
		}
	}
}

// TestKmeansTieFirstWins: with two equal nearest centroids every thread's
// strict < keeps the first of them, in every lane of every group, as the
// interpreter does.
func TestKmeansTieFirstWins(t *testing.T) {
	const n, k, dim = 259, 3, 4
	// Points lie in [0, 10); centroid 0 is far off, 1 and 2 coincide.
	cent := make([]float32, k*dim)
	for j := 0; j < dim; j++ {
		cent[j], cent[dim+j], cent[2*dim+j] = 1000, 5, 5
	}
	tie := func(c *cluster.Cluster, inst *Instance) {
		if err := c.WriteAllF32(*inst.Spec.Args[1].Buf, cent); err != nil {
			t.Fatal(err)
		}
	}
	p := Kmeans()
	for _, nodes := range []int{1, 3} {
		pr := Params{"n": n, "k": k, "dim": dim}
		nat := laneRun(t, p, pr, nodes, false, tie)
		if itp := laneRun(t, p, pr, nodes, true, tie); !slices.EqualFunc(nat, itp, bytes.Equal) {
			t.Errorf("%d nodes: native buffers differ from the interpreter's", nodes)
		}
		membership := nat[2]
		for id := 0; id < n; id++ {
			if m := binary.LittleEndian.Uint32(membership[4*id:]); m != 1 {
				t.Fatalf("%d nodes: thread %d chose centroid %d, want 1, the first of the tied pair", nodes, id, m)
			}
		}
	}
}
