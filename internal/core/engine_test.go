package core

import (
	"fmt"
	"reflect"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/metrics"
)

// vecCopyLaunch builds a 2-node session over vecCopySrc with its own
// registry and returns it with a valid 4x64 launch of n = 200 elements.
func vecCopyLaunch(t *testing.T, eng cluster.Engine) (*Session, LaunchSpec, cluster.Buffer) {
	t.Helper()
	prog, err := Compile(vecCopySrc)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 2)
	const n = 200
	src := c.Alloc(kir.U8, n)
	dest := c.Alloc(kir.U8, n)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*5 + 1)
	}
	if err := c.WriteAll(src, data); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, prog)
	sess.Metrics = metrics.New()
	sess.Host.Engine = eng
	return sess, LaunchSpec{
		Kernel: "vec_copy",
		Grid:   interp.Dim1(4),
		Block:  interp.Dim1(64),
		Args:   []Arg{BufArg(src), BufArg(dest), IntArg(n)},
	}, dest
}

// TestDefaultEngineIsLaneVM: a session with nothing configured runs its IR
// blocks on the lane-batched register machine and counts them under
// core.blocks.vm_lanes; the name "vm" selects the same loop (same memory,
// same Stats) and only moves the count to core.blocks.vm.
func TestDefaultEngineIsLaneVM(t *testing.T) {
	if DefaultEngine != cluster.EngineDefault {
		t.Fatalf("DefaultEngine = %s, want unset", DefaultEngine)
	}
	type outcome struct {
		stats    *Stats
		dest     []byte
		counters map[string]int64
	}
	run := func(eng cluster.Engine) outcome {
		sess, spec, dest := vecCopyLaunch(t, eng)
		stats, err := sess.Launch(spec)
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		return outcome{stats, append([]byte(nil), sess.Cluster.Region(0, dest)...),
			sess.Metrics.Snapshot().Counters}
	}
	def := run(cluster.EngineDefault)
	if got := def.counters[MetricBlocksVMLanes]; got == 0 {
		t.Errorf("default: %s = 0, want the launch's blocks", MetricBlocksVMLanes)
	}
	if got := def.counters[MetricBlocksVM] + def.counters[MetricBlocksInterp]; got != 0 {
		t.Errorf("default: %d blocks counted under vm/interp, want 0", got)
	}
	named := run(cluster.EngineVM)
	if got, want := named.counters[MetricBlocksVM], def.counters[MetricBlocksVMLanes]; got != want {
		t.Errorf("vm: %s = %d, want the default run's %d", MetricBlocksVM, got, want)
	}
	if got := named.counters[MetricBlocksVMLanes]; got != 0 {
		t.Errorf("vm: %s = %d, want 0", MetricBlocksVMLanes, got)
	}
	if !reflect.DeepEqual(def.stats, named.stats) {
		t.Errorf("stats differ between default and vm:\n%+v\n%+v", def.stats, named.stats)
	}
	if string(def.dest) != string(named.dest) {
		t.Error("output differs between default and vm")
	}
}

// TestLaunchRejectsNonPositiveDims: every grid/block component is checked,
// not the product — Grid{-4,-1} counts 4 blocks — and the launch fails with
// an error before any block runs, on every engine name.
func TestLaunchRejectsNonPositiveDims(t *testing.T) {
	bad := []struct{ grid, block interp.Dim3 }{
		{interp.Dim3{X: -4, Y: -1}, interp.Dim1(64)},
		{interp.Dim1(4), interp.Dim3{X: -64, Y: -1}},
		{interp.Dim3{X: 4, Y: -1}, interp.Dim1(64)},
		{interp.Dim1(0), interp.Dim1(64)},
		{interp.Dim1(4), interp.Dim3{X: 0, Y: 2}},
	}
	for _, name := range []string{"vm", "vm-lanes", "interp"} {
		eng, err := cluster.ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range bad {
			t.Run(fmt.Sprintf("%s/grid%dx%d_block%dx%d", name, tc.grid.X, tc.grid.Y, tc.block.X, tc.block.Y), func(t *testing.T) {
				sess, spec, _ := vecCopyLaunch(t, eng)
				spec.Grid, spec.Block = tc.grid, tc.block
				if _, err := sess.Launch(spec); err == nil {
					t.Fatal("launch succeeded")
				}
				c := sess.Metrics.Snapshot().Counters
				if n := c[MetricBlocksVM] + c[MetricBlocksVMLanes] + c[MetricBlocksInterp]; n != 0 {
					t.Errorf("%d blocks ran", n)
				}
			})
		}
	}
	// Y == 0 is Dim3's "unset" and stays valid.
	sess, spec, _ := vecCopyLaunch(t, cluster.EngineDefault)
	spec.Grid, spec.Block = interp.Dim3{X: 4}, interp.Dim3{X: 64}
	if _, err := sess.Launch(spec); err != nil {
		t.Fatalf("unset Y rejected: %v", err)
	}
}
