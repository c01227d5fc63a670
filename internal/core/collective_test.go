package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/simnet"
)

// The collective-schedule tests pin the schedule compiler's contract: every
// schedule it can select, the zero Choice's ring included, must leave node
// memories bitwise identical to the paper's oracle (the interpreter on one
// node), the overlap path must reduce TotalSec toward — never past — the
// free-Allgather bound, and Estimate must mirror Launch's selection exactly.

// collectiveScaleSrc writes dst from src without ever reading dst:
// callback blocks touch no gathered data, so phase-2/3 overlap is legal.
// The launch below leaves a tail-divergent block plus remainder blocks in
// phase 3 on every node count.
const collectiveScaleSrc = `
__global__ void cscale(float* src, float* dst, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        dst[id] = src[id] * 3.0f + 1.0f;
}
`

// collectiveAccumSrc reads its own written buffer (dst appears on both
// sides), so the readsWritten gate must refuse to overlap.
const collectiveAccumSrc = `
__global__ void caccum(float* src, float* dst, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n)
        dst[id] = dst[id] + src[id];
}
`

const (
	collectiveBlocks = 13
	collectiveBS     = 64
	collectiveN      = collectiveBlocks*collectiveBS - 5 // tail-divergent
)

// launchCollective runs one cscale/caccum launch on a fresh nodes-wide
// cluster under the given collective choice and returns the stats plus
// node 0's dst bytes.
func launchCollective(t *testing.T, src string, kernel string, nodes int, choice csched.Choice) (*Stats, []byte) {
	t.Helper()
	return launchCollectiveOn(t, src, kernel, nodes, choice, cluster.EngineDefault)
}

// collectiveOracle is the reference every collective launch is held to: the
// same kernel run by the interpreter on one node, where no Allgather runs.
func collectiveOracle(t *testing.T, src string, kernel string) []byte {
	t.Helper()
	_, dst := launchCollectiveOn(t, src, kernel, 1, csched.Choice{}, cluster.EngineInterp)
	return dst
}

func launchCollectiveOn(t *testing.T, src string, kernel string, nodes int, choice csched.Choice, eng cluster.Engine) (*Stats, []byte) {
	t.Helper()
	prog := MustCompile(src)
	c := newCluster(t, nodes)
	sbuf := c.Alloc(kir.F32, collectiveBlocks*collectiveBS)
	dbuf := c.Alloc(kir.F32, collectiveBlocks*collectiveBS)
	vals := make([]float32, collectiveBlocks*collectiveBS)
	for i := range vals {
		vals[i] = float32(i%97)*0.5 - 3
	}
	if err := c.WriteAllF32(sbuf, vals); err != nil {
		t.Fatal(err)
	}
	// caccum reads dst, so it must start defined (and identical everywhere).
	if err := c.WriteAllF32(dbuf, make([]float32, collectiveBlocks*collectiveBS)); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, prog)
	sess.Collective = choice
	sess.Host.Engine = eng
	sess.Verify = true
	stats, err := sess.Launch(LaunchSpec{
		Kernel: kernel,
		Grid:   interp.Dim1(collectiveBlocks),
		Block:  interp.Dim1(collectiveBS),
		Args:   []Arg{BufArg(sbuf), BufArg(dbuf), IntArg(collectiveN)},
	})
	if err != nil {
		t.Fatalf("choice %s: %v", choice, err)
	}
	return stats, append([]byte(nil), c.Region(0, dbuf)...)
}

// TestCollectiveChoicesEquivalent: every selectable schedule, the zero
// Choice's ring first, produces the oracle's bytes on composite,
// power-of-two, and prime node counts.
func TestCollectiveChoicesEquivalent(t *testing.T) {
	oracle := collectiveOracle(t, collectiveScaleSrc, "cscale")
	choices := []string{
		"", "+overlap", "auto", "ring", "recdouble", "twolevel", "pipeline", "pipeline:2",
		"auto+overlap", "ring+overlap", "pipeline:3+overlap",
	}
	for _, nodes := range []int{2, 3, 4, 5, 8} {
		var bytesPerNode int64
		for _, cs := range choices {
			choice, err := csched.ParseChoice(cs)
			if err != nil {
				t.Fatal(err)
			}
			st, got := launchCollective(t, collectiveScaleSrc, "cscale", nodes, choice)
			if !st.Distributed {
				t.Fatalf("nodes=%d choice=%q: launch not distributed", nodes, cs)
			}
			if !bytes.Equal(oracle, got) {
				t.Errorf("nodes=%d choice=%q: dst differs from the 1-node interpreter", nodes, cs)
			}
			if choice.Algo == csched.AlgoDefault && st.CollectiveAlgo != "ring" {
				t.Errorf("nodes=%d choice=%q: zero algo selected %q, want ring", nodes, cs, st.CollectiveAlgo)
			}
			if st.CollectiveAlgo == "" {
				t.Errorf("nodes=%d choice=%q: no CollectiveAlgo recorded", nodes, cs)
			}
			if bytesPerNode == 0 {
				bytesPerNode = st.CommBytesPerNode
			}
			if st.CommMsgs <= 0 || st.CommBytesPerNode != bytesPerNode {
				t.Errorf("nodes=%d choice=%q: comm accounting %d msgs, %d bytes/node (zero choice %d)",
					nodes, cs, st.CommMsgs, st.CommBytesPerNode, bytesPerNode)
			}
		}
	}
}

// TestCollectiveForcedAlgos: forcing an algorithm selects it where
// applicable and falls back to ring where not.
func TestCollectiveForcedAlgos(t *testing.T) {
	cases := []struct {
		nodes  int
		choice string
		want   string
	}{
		{4, "ring", "ring"},
		{4, "recdouble", "recdouble"},
		{4, "twolevel", "twolevel"},
		{4, "pipeline:2", "pipeline:2"},
		{5, "recdouble", "ring"}, // non-power-of-two fallback
		{5, "twolevel", "ring"},  // prime fallback
		{8, "recdouble", "recdouble"},
	}
	for _, tc := range cases {
		choice, err := csched.ParseChoice(tc.choice)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := launchCollective(t, collectiveScaleSrc, "cscale", tc.nodes, choice)
		if st.CollectiveAlgo != tc.want {
			t.Errorf("nodes=%d choice=%s: selected %q, want %q", tc.nodes, tc.choice, st.CollectiveAlgo, tc.want)
		}
	}
}

// TestCollectiveOverlapClockModel: with overlap, TotalSec drops by exactly
// OverlapSec relative to the barrier ordering of the same schedule, and
// never dips below the free-Allgather bound (TotalSec - CommSec of the
// barrier run — the cuccprof WhatIf estimate overlap chases).
func TestCollectiveOverlapClockModel(t *testing.T) {
	for _, nodes := range []int{3, 4, 8} {
		barrier, _ := launchCollective(t, collectiveScaleSrc, "cscale", nodes, csched.Choice{Algo: csched.AlgoRing})
		overlap, _ := launchCollective(t, collectiveScaleSrc, "cscale", nodes, csched.Choice{Algo: csched.AlgoRing, Overlap: true})
		// Overlap without an algorithm is the ring's overlap, not ignored.
		if zero, _ := launchCollective(t, collectiveScaleSrc, "cscale", nodes, csched.Choice{Overlap: true}); !reflect.DeepEqual(zero, overlap) {
			t.Errorf("nodes=%d: Choice{Overlap: true} stats %+v, want ring+overlap's %+v", nodes, zero, overlap)
		}
		if overlap.CallbackBlocks == 0 {
			t.Fatalf("nodes=%d: no callback blocks; the overlap test needs some", nodes)
		}
		if barrier.OverlapSec != 0 {
			t.Errorf("nodes=%d: barrier run reports OverlapSec %g", nodes, barrier.OverlapSec)
		}
		if overlap.OverlapSec <= 0 {
			t.Errorf("nodes=%d: overlap run saved nothing (OverlapSec=%g)", nodes, overlap.OverlapSec)
		}
		got := overlap.TotalSec
		want := barrier.TotalSec - overlap.OverlapSec
		if math.Abs(got-want) > 1e-12*barrier.TotalSec {
			t.Errorf("nodes=%d: overlap TotalSec %.12g, want barrier %.12g - OverlapSec %.12g",
				nodes, got, barrier.TotalSec, overlap.OverlapSec)
		}
		// The free-Allgather WhatIf bound: overlap hides communication
		// behind callbacks, it cannot beat a launch whose Allgather is free.
		freeAllgather := barrier.TotalSec - barrier.CommSec
		if got < freeAllgather-1e-12*barrier.TotalSec {
			t.Errorf("nodes=%d: overlap TotalSec %.12g beat the free-Allgather bound %.12g",
				nodes, got, freeAllgather)
		}
	}
}

// TestCollectiveOverlapGate: a kernel that reads its written buffer must
// not overlap (OverlapSec 0, barrier clock model) but still compute the
// oracle's bytes under the schedule executor.
func TestCollectiveOverlapGate(t *testing.T) {
	const nodes = 4
	oracle := collectiveOracle(t, collectiveAccumSrc, "caccum")
	for _, choice := range []csched.Choice{{}, {Overlap: true}, {Algo: csched.AlgoAuto, Overlap: true}} {
		st, got := launchCollective(t, collectiveAccumSrc, "caccum", nodes, choice)
		if !bytes.Equal(oracle, got) {
			t.Errorf("choice %s: dst differs from the 1-node interpreter", choice)
		}
		if st.OverlapSec != 0 {
			t.Errorf("choice %s: readsWritten kernel overlapped anyway (OverlapSec=%g)", choice, st.OverlapSec)
		}
		if st.TotalSec <= 0 {
			t.Errorf("choice %s: degenerate total", choice)
		}
	}
}

// TestCollectiveLayering: session beats cluster beats process default,
// first non-zero choice wins whole.
func TestCollectiveLayering(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Nodes: 2, Machine: machine.Intel6226(), Net: simnet.IB100(),
		Collective: csched.Choice{Algo: csched.AlgoRing},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prog := MustCompile(collectiveScaleSrc)
	sess := NewSession(c, prog)
	if got := sess.EffectiveCollective(); got.Algo != csched.AlgoRing {
		t.Errorf("cluster-level choice not inherited: %+v", got)
	}
	sess.Collective = csched.Choice{Algo: csched.AlgoPipeline, Chunks: 2}
	if got := sess.EffectiveCollective(); got.Algo != csched.AlgoPipeline || got.Chunks != 2 {
		t.Errorf("session-level choice not preferred: %+v", got)
	}
	sess.Collective = csched.Choice{}
	old := DefaultCollective
	DefaultCollective = csched.Choice{Algo: csched.AlgoAuto}
	defer func() { DefaultCollective = old }()
	// Cluster still wins over the process default.
	if got := sess.EffectiveCollective(); got.Algo != csched.AlgoRing {
		t.Errorf("cluster-level choice lost to process default: %+v", got)
	}
}

// TestEstimateMatchesLaunchCollectives extends the Launch/Estimate parity
// invariant over the schedule compiler: for a native kernel, every
// collective choice must produce identical TotalSec decompositions and the
// same selected algorithm from both paths.
func TestEstimateMatchesLaunchCollectives(t *testing.T) {
	mkProg := func(t *testing.T) *Program {
		prog := MustCompile(collectiveScaleSrc)
		if err := prog.RegisterNative("cscale", Native{
			RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
				nn := int(args[2].I)
				for tx := 0; tx < block.X; tx++ {
					id := block.X*bx + tx
					if id < nn {
						mem.StoreF32(1, id, mem.LoadF32(0, id)*3+1)
					}
				}
				return nil
			},
			BlockWork: func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
				bt := float64(block.X)
				return machine.BlockWork{VecFlops: 2 * bt, IntOps: 3 * bt, Bytes: 8 * bt}
			},
		}); err != nil {
			t.Fatal(err)
		}
		return prog
	}
	choices := []string{"", "+overlap", "auto", "ring", "recdouble", "twolevel", "pipeline:2", "auto+overlap", "ring+overlap"}
	for _, nodes := range []int{2, 4, 5} {
		for _, cs := range choices {
			choice, err := csched.ParseChoice(cs)
			if err != nil {
				t.Fatal(err)
			}
			prog := mkProg(t)
			c := newCluster(t, nodes)
			sbuf := c.Alloc(kir.F32, collectiveBlocks*collectiveBS)
			dbuf := c.Alloc(kir.F32, collectiveBlocks*collectiveBS)
			if err := c.WriteAllF32(sbuf, make([]float32, collectiveBlocks*collectiveBS)); err != nil {
				t.Fatal(err)
			}
			sess := NewSession(c, prog)
			sess.Collective = choice
			spec := LaunchSpec{
				Kernel: "cscale",
				Grid:   interp.Dim1(collectiveBlocks),
				Block:  interp.Dim1(collectiveBS),
				Args:   []Arg{BufArg(sbuf), BufArg(dbuf), IntArg(collectiveN)},
			}
			est, err := sess.Estimate(spec)
			if err != nil {
				t.Fatalf("nodes=%d choice=%q: estimate: %v", nodes, cs, err)
			}
			got, err := sess.Launch(spec)
			if err != nil {
				t.Fatalf("nodes=%d choice=%q: launch: %v", nodes, cs, err)
			}
			if est.CollectiveAlgo != got.CollectiveAlgo {
				t.Errorf("nodes=%d choice=%q: Estimate selected %q, Launch %q",
					nodes, cs, est.CollectiveAlgo, got.CollectiveAlgo)
			}
			for _, f := range []struct {
				name     string
				est, got float64
			}{
				{"Phase1Sec", est.Phase1Sec, got.Phase1Sec},
				{"CommSec", est.CommSec, got.CommSec},
				{"CallbackSec", est.CallbackSec, got.CallbackSec},
				{"OverlapSec", est.OverlapSec, got.OverlapSec},
				{"TotalSec", est.TotalSec, got.TotalSec},
			} {
				if relDiff(f.est, f.got) > 1e-9 {
					t.Errorf("nodes=%d choice=%q: %s estimate %.12g vs launch %.12g",
						nodes, cs, f.name, f.est, f.got)
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}
