package suites

import (
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
)

// TestAnalyticWorkMatchesMeasured cross-validates each native's analytic
// flop model (which drives every figure through the cost models) against
// the reference interpreter's dynamically counted flops on the same
// workload.  The
// analytic models include deliberate approximations (intrinsic costs,
// cache-reuse byte estimates), so the check is a factor bound on flops for
// the flop-dominated programs, not equality.
func TestAnalyticWorkMatchesMeasured(t *testing.T) {
	for _, p := range []*Program{VecAdd(), FIR(), MatMul(), Conv2D(), Kmeans()} {
		t.Run(p.Name, func(t *testing.T) {
			c := newCluster(t, 1)
			inst, err := p.Build(c, p.Small)
			if err != nil {
				t.Fatal(err)
			}
			sess := core.NewSession(c, p.Compiled)
			sess.Host.Engine = cluster.EngineInterp

			// Interpreter-measured per-block work.
			interpSpec := inst.Spec
			interpSpec.UseInterp = true
			measured, err := sess.Launch(interpSpec)
			if err != nil {
				t.Fatal(err)
			}
			// Native analytic per-block work.
			analytic, err := sess.EstimateWork(inst.Spec)
			if err != nil {
				t.Fatal(err)
			}

			mFlops := measured.Work.VecFlops + measured.Work.SerialFlops
			aFlops := analytic.VecFlops + analytic.SerialFlops
			if mFlops <= 0 || aFlops <= 0 {
				t.Fatalf("degenerate flop counts: measured %.0f analytic %.0f", mFlops, aFlops)
			}
			ratio := aFlops / mFlops
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("analytic flops %.0f vs measured %.0f (ratio %.2f); model out of bounds",
					aFlops, mFlops, ratio)
			}
		})
	}
}
