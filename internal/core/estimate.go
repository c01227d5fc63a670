package core

import (
	"fmt"

	"cucc/internal/machine"
)

// Estimate computes the launch statistics of a kernel without executing it
// or touching node memory.  It follows exactly the same path as Launch —
// same block partitioning, same metadata-derived Allgather sizes, same
// machine and network models — but takes the per-block work from the
// registered native's analytic BlockWork instead of measuring it.
//
// Launch and Estimate return identical Stats whenever a native is
// registered (tested); Estimate exists so the figure benchmarks can sweep
// paper-scale problem sizes whose real data would not fit in this process.
// Pointer arguments may therefore be "virtual" buffers: descriptors with
// the right element type and count but no backing allocation.
func (s *Session) Estimate(spec LaunchSpec) (*Stats, error) {
	st, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}
	if st.native == nil {
		return nil, fmt.Errorf("core: Estimate needs a registered native for kernel %q", spec.Kernel)
	}
	spec = st.spec // resolve may rewrite the launch geometry (BlockSplit)
	c := s.Cluster
	n := c.N()
	totalBlocks := spec.Grid.Count()
	md := st.md
	perBlock := st.native.BlockWork(st.argVals, spec.Grid, spec.Block)

	distributable := md != nil && md.Distributable && !spec.ForceTrivial && n > 1
	if md != nil && md.TailDivergent && spec.Grid.Y > 1 {
		distributable = false
	}

	stats := &Stats{Work: perBlock}
	if !distributable {
		stats.CallbackBlocks = totalBlocks
		stats.CallbackSec = c.Machine().PhaseTime(totalBlocks, perBlock, s.execConfig(st))
		stats.TotalSec = stats.CallbackSec + KernelLaunchOverheadSec
		return stats, nil
	}

	tail := 0
	if md.TailDivergent {
		tail = 1
		stats.TailDivergent = true
	}
	part := partitionBlocks(totalBlocks, tail, n, spec.Remainder)
	callbacks := totalBlocks - part.distEnd
	stats.Distributed = true
	stats.BlocksByNode = append([]int(nil), part.counts...)
	stats.BlocksPerNode = maxCount(part.counts)
	stats.CallbackBlocks = callbacks

	if stats.BlocksPerNode > 0 {
		// Phase 1 ends when the slowest node finishes, i.e. the one with
		// the most blocks (they only differ under RemainderImbalanced).
		stats.Phase1Sec = c.Machine().PhaseTime(stats.BlocksPerNode, perBlock, s.execConfig(st))
	}
	if callbacks > 0 {
		stats.CallbackSec = c.Machine().PhaseTime(callbacks, perBlock, s.execConfig(st))
	}

	plan, err := s.planGathers(st, stats, part, n)
	if err != nil {
		return nil, err
	}
	if plan.overlap {
		// Overlapped phases 2+3: callbacks start at firstRecvSec and run
		// concurrently with the collective's tail (Launch's clock model).
		span := stats.CommSec
		if cb := plan.firstRecvSec + stats.CallbackSec; cb > span {
			span = cb
		}
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
	st, err := s.resolve(spec)
	if err != nil {
		return machine.BlockWork{}, err
	}
	if st.native == nil {
		return machine.BlockWork{}, fmt.Errorf("core: no native registered for kernel %q", spec.Kernel)
	}
	return st.native.BlockWork(st.argVals, spec.Grid, spec.Block), nil
}
