package core

import (
	"fmt"

	"cucc/internal/machine"
)

// Estimate computes the launch statistics of a kernel without executing it
// or touching node memory.  It takes Launch's decisions from the same
// functions — distributed, partition and planGathers — and keeps only the
// closed-form clock, pricing every block at the registered native's
// analytic BlockWork instead of measuring it.
//
// Launch and Estimate return the same Stats, up to float round-off in the
// per-block average and the overlapped clock, whenever a native is
// registered (suites.TestEstimateMatchesLaunch).  Estimate exists so the
// figure benchmarks can sweep paper-scale problem sizes whose real data
// would not fit in this process.
// Pointer arguments may therefore be "virtual" buffers: descriptors with
// the right element type and count but no backing allocation.
func (s *Session) Estimate(spec LaunchSpec) (*Stats, error) {
	st, err := s.resolve(spec, nil)
	if err != nil {
		return nil, err
	}
	if st.native == nil {
		return nil, fmt.Errorf("core: Estimate needs a registered native for kernel %q", spec.Kernel)
	}
	spec = st.spec // resolve may rewrite the launch geometry (BlockSplit)
	c := s.Cluster
	perBlock := st.native.BlockWork(st.argVals, spec.Grid, spec.Block)
	cost := func(blocks int) float64 { return c.Machine().PhaseTime(blocks, perBlock, s.execConfig(st)) }

	stats := &Stats{Work: perBlock}
	if !st.distributed(c.N()) {
		stats.CallbackBlocks = spec.Grid.Count()
		stats.CallbackSec = cost(stats.CallbackBlocks)
		stats.TotalSec = KernelLaunchOverheadSec + stats.CallbackSec
		return stats, nil
	}
	part := st.partition(c.N(), stats)
	if stats.BlocksPerNode > 0 {
		// Phase 1 ends when the slowest node finishes, i.e. the one with
		// the most blocks (they only differ under RemainderImbalanced).
		stats.Phase1Sec = cost(stats.BlocksPerNode)
	}
	if stats.CallbackBlocks > 0 {
		stats.CallbackSec = cost(stats.CallbackBlocks)
	}

	plan, err := s.planGathers(st, stats, part, c.N())
	if err != nil {
		return nil, err
	}
	if plan.overlap {
		// Overlapped phases 2+3: callbacks start at firstRecvSec and run
		// concurrently with the collective's tail (Launch's clock model).
		span := max(stats.CommSec, plan.firstRecvSec+stats.CallbackSec)
		stats.OverlapSec = (stats.CommSec + stats.CallbackSec) - span
		stats.TotalSec = stats.Phase1Sec + KernelLaunchOverheadSec + span
	} else {
		stats.TotalSec = stats.Phase1Sec + KernelLaunchOverheadSec + stats.CommSec + stats.CallbackSec
	}
	return stats, nil
}

// EstimateWork exposes the analytic per-block work of a registered native,
// used by the GPU comparison figures.
func (s *Session) EstimateWork(spec LaunchSpec) (machine.BlockWork, error) {
	st, err := s.resolve(spec, nil)
	if err != nil {
		return machine.BlockWork{}, err
	}
	if st.native == nil {
		return machine.BlockWork{}, fmt.Errorf("core: no native registered for kernel %q", spec.Kernel)
	}
	return st.native.BlockWork(st.argVals, spec.Grid, spec.Block), nil
}
