package core

import (
	"cucc/internal/metrics"
	"cucc/internal/vm"
)

// Metric names the runtime records per launch.  Two time domains coexist
// and are deliberately kept apart in the naming: *.sim_seconds histograms
// observe the modeled (simulated) phase times — deterministic, and exactly
// the figures Stats reports — while *.wall_seconds observe how long this
// process actually took, which varies with worker-pool width and machine
// load.  Instrumentation only ever reads the simulated figures; it never
// feeds back into partitioning or the cost model.
const (
	MetricLaunches            = "core.launch.total"
	MetricLaunchesDistributed = "core.launch.distributed"
	MetricLaunchesTrivial     = "core.launch.trivial"
	MetricLaunchErrors        = "core.launch.errors"
	MetricLaunchSimSec        = "core.launch.sim_seconds"
	MetricLaunchWallSec       = "core.launch.wall_seconds"
	MetricPartialSimSec       = "core.phase.partial.sim_seconds"
	MetricAllgatherSimSec     = "core.phase.allgather.sim_seconds"
	MetricCallbackSimSec      = "core.phase.callback.sim_seconds"
	MetricPartialWallSec      = "core.phase.partial.wall_seconds"
	MetricCallbackWallSec     = "core.phase.callback.wall_seconds"
	MetricBlocksNative        = "core.blocks.native"
	MetricBlocksVM            = "core.blocks.vm"
	MetricBlocksVMLanes       = "core.blocks.vm_lanes"
	MetricBlocksInterp        = "core.blocks.interp"
	MetricWorkerBlocks        = "core.worker.blocks"
	MetricWorkerUtilization   = "core.worker.utilization"
)

// registry resolves the session's metrics destination: the session's own
// registry, then the cluster's, then the process default.  Nil means
// metrics are disabled; every recording helper is a no-op then.
func (s *Session) registry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	if s.Cluster != nil {
		if r := s.Cluster.Metrics(); r != nil {
			return r
		}
	}
	return metrics.Default()
}

// registerVMGauges bridges the VM's always-on compile-cache counters into
// the registry as snapshot-time gauges.  GaugeFunc replaces, so calling
// once per launch is idempotent.
func registerVMGauges(r *metrics.Registry) {
	r.GaugeFunc("vm.compile_cache.hits", func() float64 { return float64(vm.ReadCacheStats().Hits) })
	r.GaugeFunc("vm.compile_cache.misses", func() float64 { return float64(vm.ReadCacheStats().Misses) })
	r.GaugeFunc("vm.compile_cache.evictions", func() float64 { return float64(vm.ReadCacheStats().Evictions) })
	r.GaugeFunc("vm.compile_cache.entries", func() float64 { return float64(vm.ReadCacheStats().Entries) })
	r.GaugeFunc("vm.compile_cache.cap", func() float64 { return float64(vm.ReadCacheStats().CapEntries) })
	r.GaugeFunc("vm.compile.seconds", func() float64 { return vm.ReadCacheStats().CompileSeconds })
}

// registerVMProfileGauges bridges the opt-in VM opcode profiler into the
// registry: one gauge per profiled kernel for the dynamic instruction
// count, plus one per executed opcode.  Runs after a launch (not before)
// so the kernels profiled during it are visible; GaugeFunc replaces, so
// per-launch re-registration is idempotent.  No-op while profiling is off.
func registerVMProfileGauges(r *metrics.Registry) {
	if !vm.ProfilingEnabled() {
		return
	}
	for name, fn := range vm.ProfileGauges() {
		r.GaugeFunc(name, fn)
	}
}

// recordWorkerCounts observes the per-worker block counts of one node-phase
// and the pool's balance ratio (1.0 = every worker executed the same block
// count as the busiest one).  Single-worker pools record nothing, matching
// chargeBlocks' worker sub-spans.
func recordWorkerCounts(r *metrics.Registry, counts []int) {
	if r == nil || len(counts) <= 1 {
		return
	}
	maxCnt, total := 0, 0
	for _, c := range counts {
		total += c
		if c > maxCnt {
			maxCnt = c
		}
	}
	if maxCnt == 0 {
		return
	}
	blocks := r.Histogram(MetricWorkerBlocks)
	for _, c := range counts {
		blocks.Observe(float64(c))
	}
	r.Histogram(MetricWorkerUtilization).Observe(float64(total) / (float64(maxCnt) * float64(len(counts))))
}
