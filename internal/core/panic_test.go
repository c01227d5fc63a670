package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
)

// TestLaunchPanicFailsLaunch: a native that panics on one block fails the
// launch, not the process.  With recovery on, 63 blocks on 4 nodes run
// blocks 0-59 in phase 1 and 60-62 as callbacks; the panic in block 3
// (phase 1, one worker and three), in callback block 62 (overlapped with
// the gather) or in a trivial launch must come back as the launch's error
// with the panic value and a stack frame, restore nothing, and leave no
// goroutine behind.
func TestLaunchPanicFailsLaunch(t *testing.T) {
	const blocks, threads, nodes = 63, 4, 4
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		block   int
		workers int
		coll    string
		trivial bool
	}{
		{"workers1", 3, 1, "", false},
		{"workers3", 3, 3, "", false},
		{"trivial", 3, 3, "", true},
		{"overlap", 62, 2, "+overlap", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustCompile(workerScaleSrc)
			if err := prog.RegisterNative("scale", Native{
				RunBlock: func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error {
					if bx == tc.block {
						panic(fmt.Sprintf("native fault in block %d", bx))
					}
					return nil
				},
				BlockWork: func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork {
					return machine.BlockWork{IntOps: float64(block.X)}
				},
			}); err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(),
				Metrics: reg, Recovery: recovery.Policy{Enabled: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const n = blocks * threads
			src, dst := c.Alloc(kir.F32, n), c.Alloc(kir.F32, n)
			sess := NewSession(c, prog)
			sess.Host.Workers = tc.workers
			if sess.Collective, err = csched.ParseChoice(tc.coll); err != nil {
				t.Fatal(err)
			}
			_, err = sess.Launch(LaunchSpec{Kernel: "scale", Grid: interp.Dim1(blocks), Block: interp.Dim1(threads),
				Args: []Arg{BufArg(src), BufArg(dst), IntArg(n)}, ForceTrivial: tc.trivial})
			if err == nil {
				t.Fatal("launch with a panicking native succeeded")
			}
			want := fmt.Sprintf("native fault in block %d", tc.block)
			if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "panic_test.go") {
				t.Errorf("error lacks the panic value or its stack: %v", err)
			}
			if got := reg.Snapshot().Counters[recovery.MetricRestores]; got != 0 {
				t.Errorf("%s = %d, want 0", recovery.MetricRestores, got)
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after the launches, %d before", got, base)
	}
}
