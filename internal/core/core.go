// Package core is the CuCC framework itself: the end-to-end compiler
// driver (mini-CUDA source -> IR -> Allgather-distributable analysis ->
// executable program) and the three-phase distributed runtime of the paper:
//
//  1. Partial block execution: each node runs a distinct contiguous range
//     of GPU blocks against its private memory.
//  2. Balanced-in-place Allgather: one collective per written buffer
//     restores memory consistency across nodes.
//  3. Callback block execution: deferred blocks (the tail-divergent block
//     and the non-divisible remainder) run on every node identically.
//
// Kernels the analysis cannot prove distributable fall back to trivial
// execution (every node runs every block), which is always correct.
package core

import (
	"fmt"
	"runtime"

	"cucc/internal/analysis"
	"cucc/internal/cluster"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/trace"
	"cucc/internal/vm"
)

// KernelLaunchOverheadSec is the fixed host-side cost of one kernel launch
// on the CPU runtime (thread-pool dispatch).
const KernelLaunchOverheadSec = 10e-6

// Program is a compiled kernel module plus its analysis metadata.
type Program struct {
	Module  *kir.Module
	Meta    map[string]*analysis.Metadata
	natives map[string]Native
}

// Native is a backend-generated (hand-written Go) implementation of a
// kernel, registered alongside the IR.  RunBlock must be semantically
// identical to interpreting the IR — the test suites cross-validate.
type Native struct {
	// RunBlock executes one GPU block.
	RunBlock func(mem interp.Memory, args []interp.Value, grid, block interp.Dim3, bx, by int) error
	// BlockWork returns the analytic per-block work for the cost model.
	BlockWork func(args []interp.Value, grid, block interp.Dim3) machine.BlockWork
}

// Compile parses and analyzes kernel source, the analogue of the paper's
// LLVM pipeline in Figure 6.
func Compile(src string) (*Program, error) {
	mod, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{
		Module:  mod,
		Meta:    analysis.AnalyzeModule(mod),
		natives: map[string]Native{},
	}, nil
}

// MustCompile is Compile that panics on error, for static suite sources.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// RegisterNative attaches a native implementation to a kernel.
func (p *Program) RegisterNative(kernel string, n Native) error {
	if p.Module.Kernel(kernel) == nil {
		return fmt.Errorf("core: no kernel %q", kernel)
	}
	p.natives[kernel] = n
	return nil
}

// Native returns the native implementation registered for the kernel.
func (p *Program) Native(kernel string) (Native, bool) {
	n, ok := p.natives[kernel]
	return n, ok
}

// Kernel returns the named kernel's IR, or nil.
func (p *Program) Kernel(name string) *kir.Kernel { return p.Module.Kernel(name) }

// Arg is one kernel launch argument: a device buffer for pointer
// parameters or a scalar value.
type Arg struct {
	Buf   *cluster.Buffer
	Val   interp.Value
	IsBuf bool
}

// BufArg wraps a buffer argument.
func BufArg(b cluster.Buffer) Arg { return Arg{Buf: &b, IsBuf: true} }

// IntArg wraps an integer scalar argument.
func IntArg(v int64) Arg { return Arg{Val: interp.IntV(v)} }

// FloatArg wraps a float scalar argument.
func FloatArg(v float64) Arg { return Arg{Val: interp.FloatV(v)} }

// LaunchSpec describes one kernel launch.
type LaunchSpec struct {
	Kernel string
	Grid   interp.Dim3
	Block  interp.Dim3
	Args   []Arg
	// SIMDFraction is the fraction of the kernel's flops the CPU backend
	// vectorizes (1 = fully vectorizable).  Used only by the cost model
	// when executing interpreted kernels; natives report their own split.
	SIMDFraction float64
	// ForceTrivial disables distribution (ablation/fallback testing).
	ForceTrivial bool
	// UseInterp runs the kernel's IR even when a native is registered, on
	// the engine the session's Host.Engine selects: the register machine
	// when it is unset, the reference interpreter only for EngineInterp.
	UseInterp bool
	// BlockSplit relaunches the kernel with each GPU block split into
	// this many CPU-sized blocks (grid x split, block / split).  Valid
	// only for kernels the analysis marks GIDOnly — the workload
	// redistribution of paper §8.3, which lets programs with few blocks
	// (e.g. EP's 512) fill large CPU clusters.
	BlockSplit int
	// Remainder selects how blocks that do not divide evenly across
	// nodes are handled (RemainderCallback default).
	Remainder RemainderStrategy
}

// RemainderStrategy selects the handling of the non-divisible block
// remainder in the distributable path.
type RemainderStrategy uint8

const (
	// RemainderCallback is the paper's design: the remainder (plus the
	// tail-divergent block) is deferred to phase 3 and executed by every
	// node after a balanced Allgather.  Simple and always balanced, but
	// the callback blocks cost an extra scheduling wave on every node —
	// the §7.2 Kmeans 16->32-node anomaly.
	RemainderCallback RemainderStrategy = iota
	// RemainderImbalanced distributes the remainder across the first
	// nodes (some execute p+1 blocks) and synchronizes with an
	// imbalanced Allgatherv instead.  Avoids the callback wave at the
	// price of a slower collective (§2.3: balanced beats imbalanced).
	// Only the tail-divergent block, if any, remains a callback.
	RemainderImbalanced
)

// ExecConfig tunes the real (wall-clock) intra-node execution of block
// ranges.  It is distinct from machine.ExecConfig, which parameterizes the
// *simulated* cost model: Workers changes how fast this process executes a
// launch, never the modeled times or the computed data.
type ExecConfig struct {
	// Workers is the width of the per-node worker pool runBlocks fans a
	// block range over (the CuPBoP-style block-to-thread transform).
	// 0 selects runtime.NumCPU().
	Workers int
	// Engine selects the IR execution engine for kernels without a native
	// implementation.  EngineDefault selects the lane-batched register
	// machine.  Both engines produce bitwise-identical memory and Work
	// counters; the interpreter is kept as the differential-testing oracle.
	Engine cluster.Engine
}

// Stats reports one launch's execution.
type Stats struct {
	// Distributed reports whether the three-phase workflow was used.
	Distributed bool
	// TailDivergent mirrors the kernel metadata.
	TailDivergent bool
	// BlocksPerNode is the largest phase-1 block count any node executes
	// (p_size; the makespan-relevant count).  Under RemainderImbalanced
	// ranks differ — BlocksByNode has the per-rank counts.
	BlocksPerNode int
	// BlocksByNode is the phase-1 block count of every rank (nil for
	// non-distributed launches).
	BlocksByNode []int
	// CallbackBlocks is the phase-3 block count (executed by all nodes).
	CallbackBlocks int
	// Phase1Sec, CommSec, CallbackSec are simulated phase times.
	Phase1Sec   float64
	CommSec     float64
	CallbackSec float64
	// TotalSec is the simulated makespan of the launch.
	TotalSec float64
	// CommBytesPerNode is the bytes each node contributed to Allgather.
	CommBytesPerNode int64
	// CommMsgs is the total messages sent cluster-wide.
	CommMsgs int64
	// CollectiveAlgo names the phase-2 schedule the compiler selected
	// ("ring", "recdouble", "pipeline:4", ...); empty when nothing was
	// gathered.
	CollectiveAlgo string
	// OverlapSec is the simulated time saved by overlapping phase-3
	// callback blocks with in-flight Allgather chunks (0 without overlap).
	OverlapSec float64
	// Restores counts checkpoint restores the launch needed (0 for a
	// fault-free run); the reported phase figures are those of the final,
	// successful attempt.
	Restores int
	// LostNodes lists the cluster nodes that crashed and were excluded by
	// recovery (repaired and rejoined after the launch completed).
	LostNodes []int
	// Work is the measured/estimated per-block work.
	Work machine.BlockWork
}

// Session executes programs on a cluster.
type Session struct {
	Cluster *cluster.Cluster
	Prog    *Program
	// Exec tunes the simulated node execution model (SIMD, core caps).
	Exec machine.ExecConfig
	// Host tunes real intra-node execution (worker-pool width).
	Host ExecConfig
	// Collective selects the phase-2 collective schedule (the zero value is
	// csched's ring schedule).  The elastic-recovery policy is the
	// cluster's (cluster.Config.Recovery), since recovery regroups it.
	Collective csched.Choice
	// Verify re-checks cross-node memory consistency after every launch.
	Verify bool
	// Trace, when non-nil, records a simulated-time timeline of every
	// launch (see internal/trace).
	Trace *trace.Recorder
	// Metrics, when non-nil, is the registry launches report into; nil
	// falls back to the cluster's registry (cluster.Config.Metrics).
	// Recording never changes a simulated figure or the computed data —
	// the suites-level equivalence test enforces it.
	Metrics *metrics.Registry
	// Obs, when enabled, records launch-lifecycle events (launch phases,
	// checkpoints, rank losses, restores, rejoins) into the structured
	// event journal (see internal/obs).  The zero Scope is disabled; the
	// same never-moves-a-figure invariant as Metrics applies.
	Obs obs.Scope
}

// NewSession builds a session with default execution config.
func NewSession(c *cluster.Cluster, p *Program) *Session {
	return &Session{Cluster: c, Prog: p, Exec: machine.DefaultConfig()}
}

// launchState carries the resolved launch context.
type launchState struct {
	kernel  *kir.Kernel
	md      *analysis.Metadata
	spec    LaunchSpec
	binds   map[int]cluster.Buffer
	argVals []interp.Value
	env     analysis.Env
	native  *Native

	// The launch settings, each read once from its one source at resolve
	// time: the engine (Host.Engine, unset = vm-lanes), the pool width
	// (Host.Workers, 0 = runtime.NumCPU()), the phase-2 schedule
	// (Session.Collective), the recovery policy (the cluster's) and the
	// registry (Session.Metrics, else the cluster's; nil = disabled).
	engine     cluster.Engine
	workers    int
	collective csched.Choice
	recovery   recovery.Policy
	reg        *metrics.Registry

	// vmProfile latches the VM opcode profiler's on/off switch once per
	// launch, at resolve time, so every worker's Runner — across ranks,
	// pool workers, and the partial/callback phases — agrees even if
	// vm.SetProfiling is toggled while the launch is in flight.  Without
	// the latch, a mid-launch toggle yields a pool where some Runners are
	// instrumented and others are not, silently undercounting profiles.
	vmProfile bool

	// readsWritten reports whether the kernel loads from any buffer it
	// also writes (per the analysis write-set).  Phase-3 callback blocks of
	// such kernels may read gathered data, so phase-2/3 overlap is unsafe
	// and the runtime falls back to the barrier semantics.  Callback blocks
	// of kernels without such loads touch only block-private output regions
	// disjoint from the gathered chunks (atomics to global memory already
	// make a kernel non-distributable), so they can run while later
	// Allgather chunks are still in flight.
	readsWritten bool
}

// resolve validates spec against the kernel and latches the launch's
// settings.  reg is the registry Launch resolved (Estimate records nothing
// and passes nil).
func (s *Session) resolve(spec LaunchSpec, reg *metrics.Registry) (*launchState, error) {
	k := s.Prog.Kernel(spec.Kernel)
	if k == nil {
		return nil, fmt.Errorf("core: no kernel %q", spec.Kernel)
	}
	if len(spec.Args) != len(k.Params) {
		return nil, fmt.Errorf("core: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(spec.Args))
	}
	// Per component, not by product: Grid{X: -4, Y: -1} has a positive
	// block count.  Y == 0 is Dim3's "unset", meaning 1.
	for _, d := range []interp.Dim3{spec.Grid, spec.Block} {
		if d.X < 1 || d.Y < 0 {
			return nil, fmt.Errorf("core: kernel %s: grid %dx%d, block %dx%d: every launch dimension must be >= 1",
				k.Name, spec.Grid.X, spec.Grid.Y, spec.Block.X, spec.Block.Y)
		}
	}
	md := s.Prog.Meta[spec.Kernel]
	if spec.BlockSplit > 1 {
		if md == nil || !md.GIDOnly {
			return nil, fmt.Errorf("core: kernel %s is not GID-only; block splitting is unsafe", k.Name)
		}
		if spec.Grid.Y > 1 || spec.Block.Y > 1 {
			return nil, fmt.Errorf("core: kernel %s: block splitting requires a 1D launch", k.Name)
		}
		if spec.Block.X%spec.BlockSplit != 0 {
			return nil, fmt.Errorf("core: kernel %s: block size %d not divisible by split %d", k.Name, spec.Block.X, spec.BlockSplit)
		}
		spec.Grid.X *= spec.BlockSplit
		spec.Block.X /= spec.BlockSplit
	}
	st := &launchState{
		kernel:     k,
		md:         md,
		spec:       spec,
		binds:      map[int]cluster.Buffer{},
		argVals:    make([]interp.Value, len(spec.Args)),
		engine:     s.Host.Engine,
		workers:    s.Host.Workers,
		collective: s.Collective,
		recovery:   s.Cluster.Recovery(),
		reg:        reg,
	}
	if st.engine == cluster.EngineDefault {
		st.engine = cluster.EngineVMLanes
	}
	if st.workers <= 0 {
		st.workers = runtime.NumCPU()
	}
	params := map[string]int64{}
	for i, a := range spec.Args {
		if a.IsBuf != k.Params[i].Pointer {
			return nil, fmt.Errorf("core: kernel %s arg %d (%s): buffer/scalar mismatch", k.Name, i, k.Params[i].Name)
		}
		if a.IsBuf {
			if a.Buf.Elem != k.Params[i].Elem {
				return nil, fmt.Errorf("core: kernel %s arg %d (%s): buffer elem %s, param wants %s",
					k.Name, i, k.Params[i].Name, a.Buf.Elem, k.Params[i].Elem)
			}
			st.binds[i] = *a.Buf
		} else {
			st.argVals[i] = a.Val
			if k.Params[i].Elem.IsInteger() {
				params[k.Params[i].Name] = a.Val.I
			}
		}
	}
	st.env = analysis.Env{
		Bdx:    int64(spec.Block.X),
		Bdy:    int64(max(spec.Block.Y, 1)),
		Gdx:    int64(spec.Grid.X),
		Gdy:    int64(max(spec.Grid.Y, 1)),
		Params: params,
	}
	if n, ok := s.Prog.Native(spec.Kernel); ok && !spec.UseInterp {
		st.native = &n
	}
	st.vmProfile = vm.ProfilingEnabled()
	if md != nil && len(md.Buffers) > 0 {
		written := map[int]bool{}
		for _, bm := range md.Buffers {
			written[bm.Param] = true
		}
		kir.WalkExprs(k.Body, func(e kir.Expr) {
			if ld, ok := e.(*kir.Load); ok && ld.Mem.Space == kir.Global && written[ld.Mem.Param] {
				st.readsWritten = true
			}
		})
	}
	return st, nil
}

// bufferRegion resolves a BufferMeta to (buffer, baseElem, unitElems).
func (st *launchState) bufferRegion(bm analysis.BufferMeta) (cluster.Buffer, int64, int64, error) {
	buf, ok := st.binds[bm.Param]
	if !ok {
		return cluster.Buffer{}, 0, 0, fmt.Errorf("core: kernel %s: no buffer bound to written param %s", st.kernel.Name, bm.ParamName)
	}
	base, err := bm.Base.Eval(st.env)
	if err != nil {
		return cluster.Buffer{}, 0, 0, err
	}
	unit, err := bm.UnitElems.Eval(st.env)
	if err != nil {
		return cluster.Buffer{}, 0, 0, err
	}
	if unit <= 0 {
		return cluster.Buffer{}, 0, 0, fmt.Errorf("core: kernel %s: non-positive unit size %d for %s", st.kernel.Name, unit, bm.ParamName)
	}
	return buf, base, unit, nil
}
