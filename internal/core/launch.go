package core

import (
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cucc/internal/trace"

	"cucc/internal/analysis"
	"cucc/internal/cluster"
	// Imported directly, though nothing here names it: without the import
	// go1.24 does not inline comm.Stats.Add into the gather loop, and its
	// out-of-line copy shifts all code linked after comm, the interpreter's
	// block loop included, by 32 bytes, which slowed 1-node interpreted
	// launches by about 5% on the 2-vCPU reference VM.
	_ "cucc/internal/comm"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/machine"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/transport"
	"cucc/internal/vm"
)

// blockRunner is the executor seam shared by both IR engines: a compiled
// (or prepared) kernel bound to one node's memory, executing one block per
// call with worker-private scratch.
type blockRunner interface {
	ExecBlock(bx, by int) (interp.Work, error)
}

// Launch executes one kernel on the cluster using the three-phase workflow
// when the kernel is Allgather distributable, and trivial replicated
// execution otherwise: the callback phase alone, every node running every
// block (paper §6.1, "trivial Allgather distributable").  It returns
// simulated-time statistics; the data in the cluster's node memories is
// really computed and really synchronized.
func (s *Session) Launch(spec LaunchSpec) (stats *Stats, err error) {
	// The one registry lookup of the launch.  It precedes resolve so that a
	// spec resolve rejects still counts as a launch error; resolve latches it
	// for the phases.
	reg := s.Metrics
	if reg == nil {
		reg = s.Cluster.Metrics()
	}
	if reg != nil {
		registerVMGauges(reg)
		defer func(start time.Time) {
			registerVMProfileGauges(reg)
			reg.Counter(MetricLaunches).Inc()
			reg.Histogram(MetricLaunchWallSec).Observe(time.Since(start).Seconds())
			if err != nil {
				reg.Counter(MetricLaunchErrors).Inc()
			} else if stats != nil {
				reg.Histogram(MetricLaunchSimSec).Observe(stats.TotalSec)
			}
		}(time.Now())
	}
	st, err := s.resolve(spec, reg)
	if err != nil {
		return nil, err
	}
	c := s.Cluster
	dist := st.distributed(c.N())
	stats = &Stats{}
	startClock := c.MaxClock()

	if s.Obs.On() {
		s.Obs.Record(obs.EvLaunchPhase, -1, st.kernel.Name,
			fmt.Sprintf("start: blocks=%d nodes=%d distributed=%v", st.spec.Grid.Count(), c.N(), dist))
	}

	done := "trivial replicated execution complete"
	if dist {
		reg.Counter(MetricLaunchesDistributed).Inc()
		if err := s.runDistributed(st, stats, c.ActiveGroup()); err != nil {
			return nil, err
		}
		done = fmt.Sprintf("distributed execution complete: restores=%d", stats.Restores)
	} else {
		reg.Counter(MetricLaunchesTrivial).Inc()
		g := c.ActiveGroup()
		s.chargeLaunch(st, g)
		stats.CallbackBlocks = st.spec.Grid.Count()
		if err := s.runCallbacks(st, stats, g, 0, "trivial: all "); err != nil {
			s.emitFailure(st.kernel.Name, err)
			return nil, err
		}
	}

	stats.TotalSec = c.MaxClock() - startClock
	if s.Verify {
		if err := s.verifyConsistency(st); err != nil {
			return nil, err
		}
	}
	if s.Obs.On() {
		s.Obs.Record(obs.EvLaunchPhase, -1, st.kernel.Name, done)
	}
	return stats, nil
}

// chargeLaunch pays the host-side launch overhead once on every member of g,
// as its own span: the timeline must tile each node's clock advance, so that
// per-node span sums reproduce TotalSec.
func (s *Session) chargeLaunch(st *launchState, g *cluster.Group) {
	for _, node := range g.Nodes() {
		n := s.Cluster.Node(node)
		s.Trace.Add(trace.Event{StartSec: n.Clock, DurSec: KernelLaunchOverheadSec,
			Node: node, Phase: trace.PhaseLaunch, Kernel: st.kernel.Name})
		n.Clock += KernelLaunchOverheadSec
	}
}

// runDistributed runs the three-phase workflow on g: launch overhead, then
// attempts until one completes, then the repair of any node recovery lost.
func (s *Session) runDistributed(st *launchState, stats *Stats, g *cluster.Group) error {
	c := s.Cluster
	pol := st.recovery
	regions, err := writtenRegions(st)
	if err != nil {
		return err
	}
	recEnabled := pol.Enabled && len(regions) > 0
	s.chargeLaunch(st, g)

	// Checkpoint the launch-entry barrier: before phase 1 touches them,
	// all participating nodes hold identical written-buffer contents, so
	// one snapshot restores any of them.
	var cp *recovery.Checkpoint
	if recEnabled {
		cp = s.captureCheckpoint(st, regions, g)
	}

	// Attempt loop: each iteration runs the three phases on the current
	// group.  On a rank loss (and an enabled policy), the failure is
	// classified, the survivors regroup over a fresh transport, the
	// checkpoint is restored, and the attempt replays re-partitioned over
	// them.  Deterministic block execution over the checkpointed entry state
	// makes the recovered result bitwise identical to a fault-free run.
	for {
		aerr := s.runPhases(st, stats, g)
		if aerr == nil {
			break
		}
		// A block error is computed from barrier state every rank shares:
		// it recurs on whichever rank replays the block, so it fails the
		// launch as it stands instead of counting as a rank loss.
		if !recEnabled || errors.As(aerr, new(blockError)) {
			s.emitFailure(st.kernel.Name, aerr)
			return aerr
		}
		failed, ok := recovery.Classify(aerr)
		surv := recovery.Survivors(g.Nodes(), failed)
		if ok && s.Obs.On() {
			s.Obs.RecordEvent(recovery.RankLossEvent(st.kernel.Name, failed, surv))
		}
		if !ok || stats.Restores >= pol.EffectiveMaxRestores() ||
			len(surv) == 0 || len(surv) < pol.EffectiveMinRanks() {
			s.emitFailure(st.kernel.Name, aerr)
			return aerr
		}
		ng, gerr := c.AdoptSubgroup(surv)
		if gerr != nil {
			s.emitFailure(st.kernel.Name, aerr)
			return errors.Join(aerr, gerr)
		}
		g = ng
		s.restoreCheckpoint(cp, g)
		stats.Restores++
		stats.LostNodes = missingNodes(c.N(), g.Nodes())
		st.reg.Counter(recovery.MetricRestores).Inc()
		st.reg.Counter(recovery.MetricRepartitions).Inc()
		s.Trace.Add(trace.Event{StartSec: g.MaxClock(), Node: -1, Phase: trace.PhaseRecovery,
			Kernel: st.kernel.Name,
			Detail: fmt.Sprintf("restore @%s: lost nodes %v, replaying over %d ranks",
				cp.Cursor, failed, len(surv))})
		if s.Obs.On() {
			s.Obs.RecordEvent(recovery.RestoreEvent(st.kernel.Name, cp, len(surv)))
		}
	}

	// Rank replacement: a crashed node was consistent at launch entry and
	// the replay wrote only the checkpointed write-set regions, so
	// copying those regions from any survivor repairs it; then the full
	// cluster width rejoins over a fresh transport for later launches.
	if !g.Full() {
		src := g.NodeOf(0)
		top := g.MaxClock()
		for _, node := range stats.LostNodes {
			for _, rgn := range regions {
				copy(c.HeapBytes(node, rgn.Off, rgn.Len), c.HeapBytes(src, rgn.Off, rgn.Len))
			}
			c.Node(node).Clock = top
		}
		if err := c.RejoinAll(); err != nil {
			return fmt.Errorf("core: rejoining after recovery: %w", err)
		}
		st.reg.Counter(recovery.MetricRejoins).Add(int64(len(stats.LostNodes)))
		if s.Obs.On() {
			s.Obs.RecordEvent(recovery.RejoinEvent(st.kernel.Name, stats.LostNodes))
		}
	}
	return nil
}

// runPhases executes one attempt of the three-phase workflow on the group
// g: it partitions the grid over the group's members and runs phase 1, the
// Allgather, and the callbacks.  Transport ranks are member indices;
// g.NodeOf maps them to cluster nodes for memory, clocks, and trace
// attribution.
func (s *Session) runPhases(st *launchState, stats *Stats, g *cluster.Group) error {
	c := s.Cluster
	total := st.spec.Grid.Count()

	// Phase figures describe one attempt: a replay overwrites the failed
	// attempt's partial numbers.
	*stats = Stats{Restores: stats.Restores, LostNodes: stats.LostNodes}
	part := st.partition(g.Size(), stats)
	callbacks := stats.CallbackBlocks

	// --- Phase 1: partial block execution ---
	if part.distEnd > 0 {
		runs, err := s.runRanges(st, g, MetricPartialWallSec, func(m int) (int, int) {
			return part.starts[m], part.starts[m] + part.counts[m]
		})
		if err != nil {
			return err
		}
		for m, run := range runs {
			cnt := part.counts[m]
			if cnt == 0 {
				continue
			}
			node := g.NodeOf(m)
			clock := &c.Node(node).Clock
			dt, per := s.chargeBlocks(st, node, trace.PhasePartial, *clock, cnt, run, fmt.Sprintf("%d blocks", cnt))
			*clock += dt
			if m == 0 {
				stats.Phase1Sec, stats.Work = dt, per
			}
		}
	}

	// --- Phase 2: in-place Allgather per written buffer ---
	plan, err := s.planGathers(st, stats, part, g.Size())
	if err != nil {
		return err
	}
	// gather runs member m's side of every planned Allgather in plan order,
	// so each peer's messages arrive in the same order on both paths below.
	// Each member copies its sends out of one arena lent from the cluster's
	// slab free list, cut in plan order; arenas[m] goes back once the
	// RunParallel below has returned nil.
	arenas := make([]*[]byte, g.Size())
	gather := func(m int, conn transport.Conn) error {
		node := g.NodeOf(m)
		need := 0
		for _, op := range plan.ops {
			need += op.sel.Schedule.ArenaLen(m, op.sel.Offs)
		}
		var arena []byte
		if need > 0 {
			arenas[m] = c.LendArena(need)
			arena = *arenas[m]
		}
		for _, op := range plan.ops {
			n := op.sel.Schedule.ArenaLen(m, op.sel.Offs)
			cs, err := csched.ExecuteArena(conn, c.HeapBytes(node, op.regionStart, op.regionLen), op.sel.Offs, op.sel.Schedule, arena[:n:n])
			if err != nil {
				return err
			}
			arena = arena[n:]
			c.Node(node).Comm.Add(cs)
		}
		return nil
	}
	var cb []blockRun
	if plan.overlap {
		// --- Overlapped phases 2+3: each rank drives its collective
		// schedule while a concurrent goroutine executes the callback
		// blocks.  Safe because callbacks write only block regions past
		// part.distEnd — disjoint from every gathered chunk — and the
		// readsWritten gate proved they never load gathered data; the
		// result is bitwise identical to the barrier ordering.
		cb = make([]blockRun, g.Size())
		wallStart := time.Now()
		err = g.RunParallel(func(m int, conn transport.Conn) error {
			// fanOut joins the callback goroutine before the rank returns:
			// the cluster may tear the launch down on error, and the blocks
			// must not outlive it.
			var commErr, cbErr error
			perr := fanOut(2, func(i int) {
				if i == 0 {
					commErr = gather(m, conn)
				} else {
					cb[m], cbErr = s.runBlocks(st, g.NodeOf(m), part.distEnd, total)
				}
			})
			return errors.Join(commErr, cbErr, perr)
		})
		st.reg.Histogram(MetricCallbackWallSec).Observe(time.Since(wallStart).Seconds())
	} else {
		err = g.RunParallel(gather)
	}
	if err != nil {
		// A message cut from an arena may still be in flight: the
		// collector takes the arenas.
		return err
	}
	// Every rank's executor has returned, so every message cut from an
	// arena has been received, forwarded ones included.
	for _, a := range arenas {
		if a != nil {
			c.ReturnArena(a)
		}
	}
	detail := fmt.Sprintf("%d bytes/node, %d msgs", stats.CommBytesPerNode, stats.CommMsgs)
	if stats.CollectiveAlgo != "" {
		detail += ", " + stats.CollectiveAlgo
	}
	base := g.MaxClock()
	s.Trace.Add(trace.Event{StartSec: base, DurSec: stats.CommSec, Node: -1,
		Phase: trace.PhaseAllgather, Kernel: st.kernel.Name, Detail: detail})
	st.reg.Histogram(MetricAllgatherSimSec).Observe(stats.CommSec)

	if !plan.overlap {
		// The Allgather synchronizes the nodes: clocks meet at the maximum,
		// then all pay the collective cost.
		g.SyncClocksMax(stats.CommSec)

		// --- Phase 3: callback block execution on every node ---
		return s.runCallbacks(st, stats, g, part.distEnd, "")
	}

	// Overlapped clock model: the collective still synchronizes every rank
	// at phase-1 max, but callbacks start at firstRecvSec — the modeled
	// point every rank has its first chunk — instead of after the full
	// collective; each rank finishes at whichever of the two overlapped
	// activities ends later.
	start := base + plan.firstRecvSec
	maxDt := 0.0
	for m, run := range cb {
		node := g.NodeOf(m)
		dt, _ := s.chargeBlocks(st, node, trace.PhaseCallback, start, callbacks, run,
			fmt.Sprintf("%d blocks (overlapped)", callbacks))
		c.Node(node).Clock = max(base+stats.CommSec, start+dt)
		maxDt = max(maxDt, dt)
		if m == 0 {
			stats.CallbackSec = dt
		}
	}
	stats.OverlapSec = (base + stats.CommSec + maxDt) - g.MaxClock()
	return nil
}

// gatherOp is one phase-2 Allgather: a written buffer's byte region in node
// memory and the schedule selected for the ranks' chunks of it.
type gatherOp struct {
	regionStart, regionLen int
	sel                    *csched.Selection
}

// gatherPlan is phase 2 of one attempt.
type gatherPlan struct {
	ops []gatherOp
	// firstRecvSec is when the first buffer's first chunk has landed on
	// every rank: overlapped callbacks start there.
	firstRecvSec float64
	// overlap runs the phase-3 callbacks while the Allgathers are in flight.
	overlap bool
}

// planGathers plans phase 2 over the n ranks of part: one in-place
// Allgather per written buffer, its schedule selected by csched for the
// ranks' chunk sizes, and adds the selections' modeled figures to stats
// (CommSec, CommMsgs, CommBytesPerNode, CollectiveAlgo).  Launch executes
// the plan and Estimate only costs it, so the two agree on phase 2 by
// construction.  With overlap wanted, stats.Work (rank 0's per-block work)
// prices the callbacks that selection may hide the collective behind.
func (s *Session) planGathers(st *launchState, stats *Stats, part partition, n int) (*gatherPlan, error) {
	c := s.Cluster
	choice := st.collective
	callbacks := st.spec.Grid.Count() - part.distEnd
	wantOverlap := choice.Overlap && callbacks > 0 && !st.readsWritten
	cbHint := 0.0
	if wantOverlap && part.counts[0] > 0 {
		cbHint = c.Machine().PhaseTime(callbacks, stats.Work, s.execConfig(st))
	}
	plan := &gatherPlan{}
	for _, bm := range st.md.Buffers {
		buf, base, unit, err := st.bufferRegion(bm)
		if err != nil {
			return nil, err
		}
		if part.distEnd == 0 {
			continue
		}
		if int(base)+int(unit)*part.distEnd > buf.Count {
			return nil, fmt.Errorf("core: kernel %s writes past buffer %s (%d elems > %d)",
				st.kernel.Name, bm.ParamName, int(base)+int(unit)*part.distEnd, buf.Count)
		}
		elem := bm.Elem.Size()
		chunks := make([]int64, n)
		for r := range chunks {
			chunks[r] = int64(part.counts[r]) * unit * int64(elem)
		}
		// csched parameterizes schedules by rank count, so a recovered
		// subgroup compiles its own m-rank schedule.
		sel, err := csched.Select(csched.Request{
			Ranks: n, RankBytes: chunks, Model: c.Net(),
			Choice: choice, CallbackSec: cbHint,
		})
		if err != nil {
			return nil, err
		}
		if len(plan.ops) == 0 {
			plan.firstRecvSec = sel.Eval.FirstRecvSec
			stats.CollectiveAlgo = sel.Schedule.String()
		}
		stats.CommSec += sel.Eval.CostSec
		stats.CommMsgs += sel.Eval.Msgs
		stats.CommBytesPerNode += chunks[0]
		plan.ops = append(plan.ops, gatherOp{
			regionStart: buf.Off + int(base)*elem,
			regionLen:   int(unit) * part.distEnd * elem,
			sel:         sel,
		})
	}
	plan.overlap = wantOverlap && len(plan.ops) > 0
	return plan, nil
}

// runCallbacks executes the callback range [lo, total) on every member of g
// at a barrier: phase 3 of a non-overlapped launch and — with lo = 0 — the
// whole of a trivial launch.  label prefixes the spans' block count.  With
// lo = 0 no phase 1 measured the per-block work, so rank 0's callbacks
// report it.
func (s *Session) runCallbacks(st *launchState, stats *Stats, g *cluster.Group, lo int, label string) error {
	total := st.spec.Grid.Count()
	cnt := total - lo
	if cnt <= 0 {
		return nil
	}
	runs, err := s.runRanges(st, g, MetricCallbackWallSec, func(int) (int, int) { return lo, total })
	if err != nil {
		return err
	}
	detail := fmt.Sprintf("%s%d blocks", label, cnt)
	for m, run := range runs {
		node := g.NodeOf(m)
		clock := &s.Cluster.Node(node).Clock
		dt, per := s.chargeBlocks(st, node, trace.PhaseCallback, *clock, cnt, run, detail)
		*clock += dt
		if m == 0 {
			stats.CallbackSec = dt
			if lo == 0 {
				stats.Work = per
			}
		}
	}
	return nil
}

// blockRun is what one node's execution of a block range measured: the
// summed work, and how many blocks each pool worker executed.
type blockRun struct {
	work    machine.BlockWork
	workers []int
}

// runRanges executes member m's block range rng(m) on every member of g at
// once, observing the wall time under wallMetric.
func (s *Session) runRanges(st *launchState, g *cluster.Group, wallMetric string, rng func(m int) (lo, hi int)) ([]blockRun, error) {
	runs := make([]blockRun, g.Size())
	wallStart := time.Now()
	err := g.RunParallel(func(m int, _ transport.Conn) error {
		lo, hi := rng(m)
		var err error
		runs[m], err = s.runBlocks(st, g.NodeOf(m), lo, hi)
		return err
	})
	st.reg.Histogram(wallMetric).Observe(time.Since(wallStart).Seconds())
	return runs, err
}

// chargeBlocks models node's execution of cnt blocks as one phase span from
// start, priced at run's per-block average work, and records the span, one
// sub-span per pool worker that executed blocks (none for a single-worker
// pool, keeping sequential timelines identical to the pre-pool runtime's),
// the phase's simulated-time histogram and the worker counts.  The caller
// moves the clock.  It returns the modeled time and the per-block work.
func (s *Session) chargeBlocks(st *launchState, node int, phase string, start float64, cnt int, run blockRun, detail string) (float64, machine.BlockWork) {
	per := run.work.Scale(1 / float64(cnt))
	dt := s.Cluster.Machine().PhaseTime(cnt, per, s.execConfig(st))
	s.Trace.Add(trace.Event{StartSec: start, DurSec: dt, Node: node,
		Phase: phase, Kernel: st.kernel.Name, Detail: detail})
	if s.Trace != nil && len(run.workers) > 1 {
		for w, n := range run.workers {
			if n > 0 {
				s.Trace.Add(trace.Event{StartSec: start, DurSec: dt, Node: node,
					Phase: trace.PhaseWorker, Kernel: st.kernel.Name,
					Detail: fmt.Sprintf("worker %d/%d: %d blocks", w, len(run.workers), n)})
			}
		}
	}
	metric := MetricCallbackSimSec
	if phase == trace.PhasePartial {
		metric = MetricPartialSimSec
	}
	st.reg.Histogram(metric).Observe(dt)
	recordWorkerCounts(st.reg, run.workers)
	return dt, per
}

// writtenRegions lists the heap spans of every buffer the kernel writes —
// the state a checkpoint must capture.  Buffers the kernel only reads are
// never modified by the launch, so the pre-launch copy every node already
// holds is authoritative for them.
func writtenRegions(st *launchState) ([]recovery.Region, error) {
	seen := map[int]bool{}
	var regions []recovery.Region
	for _, bm := range st.md.Buffers {
		buf, _, _, err := st.bufferRegion(bm)
		if err != nil {
			return nil, err
		}
		if seen[buf.Off] {
			continue
		}
		seen[buf.Off] = true
		regions = append(regions, recovery.Region{Off: buf.Off, Len: buf.Bytes()})
	}
	return regions, nil
}

// captureCheckpoint snapshots the write-set regions from the group's first
// member — every member holds identical contents at launch entry, so one
// copy serves all — and counts and journals the capture together, so the
// counter and the event stream cannot disagree about how many were taken.
func (s *Session) captureCheckpoint(st *launchState, regions []recovery.Region, g *cluster.Group) *recovery.Checkpoint {
	c := s.Cluster
	src := g.NodeOf(0)
	cp := recovery.Capture(recovery.CursorStart, 0, regions, func(r recovery.Region) []byte {
		return c.HeapBytes(src, r.Off, r.Len)
	})
	st.reg.Counter(recovery.MetricCheckpoints).Inc()
	if s.Obs.On() {
		s.Obs.RecordEvent(recovery.CheckpointEvent(st.kernel.Name, cp))
	}
	return cp
}

// restoreCheckpoint writes the checkpointed regions into every member of
// the (re-formed) group, re-establishing the launch-entry state the replay
// starts from.
func (s *Session) restoreCheckpoint(cp *recovery.Checkpoint, g *cluster.Group) {
	c := s.Cluster
	for _, node := range g.Nodes() {
		cp.Restore(func(r recovery.Region, data []byte) {
			copy(c.HeapBytes(node, r.Off, r.Len), data)
		})
	}
}

// missingNodes lists the cluster nodes absent from the group members.
func missingNodes(n int, members []int) []int {
	in := make([]bool, n)
	for _, m := range members {
		in[m] = true
	}
	var out []int
	for node := 0; node < n; node++ {
		if !in[node] {
			out = append(out, node)
		}
	}
	return out
}

// partition describes how phase-1 blocks are assigned to nodes: node r
// executes [starts[r], starts[r]+counts[r]); blocks [distEnd, total) are
// callbacks.
type partition struct {
	starts, counts []int
	distEnd        int
}

// distributed reports whether a launch on n nodes runs the three-phase
// workflow; otherwise it is trivial.  Launch and Estimate both ask here.
func (st *launchState) distributed(n int) bool {
	md := st.md
	// Tail divergence is defined over the flattened 1D grid.
	return md != nil && md.Distributable && !st.spec.ForceTrivial && n > 1 &&
		!(md.TailDivergent && st.spec.Grid.Y > 1)
}

// partition splits the grid over n ranks — the tail-divergent block, if
// any, stays a callback — and records the launch shape in stats.
func (st *launchState) partition(n int, stats *Stats) partition {
	tail := 0
	if st.md.TailDivergent {
		tail = 1
	}
	total := st.spec.Grid.Count()
	part := partitionBlocks(total, tail, n, st.spec.Remainder)
	stats.Distributed = true
	stats.TailDivergent = st.md.TailDivergent
	stats.BlocksByNode = append([]int(nil), part.counts...)
	stats.BlocksPerNode = slices.Max(part.counts)
	stats.CallbackBlocks = total - part.distEnd
	return part
}

// partitionBlocks splits the non-tail blocks across nodes under the chosen
// remainder strategy.
func partitionBlocks(total, tail, n int, strategy RemainderStrategy) partition {
	distributable := total - tail
	p := distributable / n
	part := partition{starts: make([]int, n), counts: make([]int, n)}
	switch strategy {
	case RemainderImbalanced:
		rem := distributable % n
		off := 0
		for r := 0; r < n; r++ {
			cnt := p
			if r < rem {
				cnt++
			}
			part.starts[r] = off
			part.counts[r] = cnt
			off += cnt
		}
		part.distEnd = distributable
	default:
		for r := 0; r < n; r++ {
			part.starts[r] = r * p
			part.counts[r] = p
		}
		part.distEnd = n * p
	}
	return part
}

// runBlocks executes the linearized block range [lo, hi) on one node and
// returns the summed work plus how many blocks each pool worker executed.
// Linearization is row-major over (by, bx), matching the analysis' Linear2D
// convention.
//
// The range is fanned over the launch's st.workers workers by fanOut, worker
// 0 on the calling goroutine (the CuPBoP-style block-to-thread transform
// executing migrated GPU blocks across the node's CPU cores).  Assignment
// is static block-cyclic — worker w executes blocks lo+w, lo+w+W, … — so
// the per-worker block counts (and the PhaseWorker trace spans derived from
// them) are a pure function of the range and pool width, never of goroutine
// scheduling; identical runs export identical traces.  Per-block work is
// aggregated in block-index order, so the returned BlockWork — and every
// simulated-time figure derived from it — is bitwise identical to the
// single-worker (sequential) execution.
func (s *Session) runBlocks(st *launchState, rank, lo, hi int) (blockRun, error) {
	n := hi - lo
	if n <= 0 {
		return blockRun{}, nil
	}
	mem := s.Cluster.Mem(rank, st.binds)
	gdx := st.spec.Grid.X

	// mkExec builds one per-worker block executor and the function that
	// releases its runner state once the worker's block loop ends.  The IR path
	// sets up worker-private runner state (launch validation, rounded
	// scalar args, shared-memory arenas, VM register files) once here
	// instead of once per block, so each pool worker must call it for its
	// own executor; releasing hands the VM's register files to the next
	// launch of the kernel.
	var mkExec func() (exec func(l int) (machine.BlockWork, error), release func(), err error)
	blockMetric := MetricBlocksNative
	if st.native != nil {
		perBlock := st.native.BlockWork(st.argVals, st.spec.Grid, st.spec.Block)
		exec := func(l int) (machine.BlockWork, error) {
			bx, by := l%gdx, l/gdx
			if err := st.native.RunBlock(mem, st.argVals, st.spec.Grid, st.spec.Block, bx, by); err != nil {
				return machine.BlockWork{}, fmt.Errorf("kernel %s block (%d,%d): %w", st.kernel.Name, bx, by, err)
			}
			return perBlock, nil
		}
		mkExec = func() (func(l int) (machine.BlockWork, error), func(), error) { return exec, func() {}, nil }
	} else {
		// "vm" and "vm-lanes" name the same register machine; the counter
		// keeps the name the launch resolved to.
		switch st.engine {
		case cluster.EngineInterp:
			blockMetric = MetricBlocksInterp
		case cluster.EngineVM:
			blockMetric = MetricBlocksVM
		default:
			blockMetric = MetricBlocksVMLanes
		}
		mkExec = func() (func(l int) (machine.BlockWork, error), func(), error) {
			l := &interp.Launch{
				Kernel: st.kernel,
				Grid:   st.spec.Grid,
				Block:  st.spec.Block,
				Args:   st.argVals,
				Mem:    mem,
			}
			var r blockRunner
			var err error
			release := func() {}
			if st.engine == cluster.EngineInterp {
				r, err = interp.NewRunner(l)
			} else {
				// The profiling decision was latched at resolve time so
				// every worker's runner agrees (see launchState.vmProfile).
				var vr *vm.Runner
				vr, err = vm.NewRunnerProfiled(l, st.vmProfile)
				r, release = vr, vr.Release
			}
			if err != nil {
				return nil, nil, err
			}
			return func(li int) (machine.BlockWork, error) {
				bx, by := li%gdx, li/gdx
				w, err := r.ExecBlock(bx, by)
				if err != nil {
					return machine.BlockWork{}, err
				}
				return w.BlockWork(st.spec.SIMDFraction), nil
			}, release, nil
		}
	}

	workers := min(st.workers, n)
	counts := make([]int, workers)
	works := make([]machine.BlockWork, n)
	errs := make([]error, workers)
	var failed atomic.Bool
	perr := fanOut(workers, func(wk int) {
		exec, release, err := mkExec()
		if err != nil {
			errs[wk] = err
			failed.Store(true)
			return
		}
		defer release()
		for l := wk; l < n && !failed.Load(); l += workers {
			w, err := exec(lo + l)
			if err != nil {
				errs[wk] = err
				failed.Store(true)
				return
			}
			works[l] = w
			counts[wk]++
		}
	})
	if perr != nil {
		return blockRun{}, perr
	}
	for _, err := range errs {
		if err != nil {
			return blockRun{}, blockError{err}
		}
	}
	// Fold in block-index order: float summation order — and therefore the
	// work totals and modeled phase times — matches the sequential loop
	// exactly, whatever order the workers claimed blocks in.
	var total machine.BlockWork
	for i := range works {
		total.Add(works[i])
	}
	st.reg.Counter(blockMetric).Add(int64(n))
	return blockRun{total, counts}, nil
}

// fanOut runs f(0), …, f(n-1) concurrently and returns once every call
// has: f(0) on the calling goroutine, the rest on goroutines of their own,
// so n == 1 starts none.  It is the one place core starts goroutines that
// run blocks.  A call that panics — a faulty native, a bug in the collective
// schedule — fails the launch instead of the process: fanOut returns the
// panic value and its stack as a blockError, which is never a rank loss,
// because a replay would panic again.
func fanOut(n int, f func(i int)) error {
	errs := make([]error, n-1) // calls 1..n-1: empty, so not allocated, when n == 1
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i-1] = callRecover(f, i)
		}()
	}
	err := callRecover(f, 0)
	wg.Wait()
	if err = errors.Join(err, errors.Join(errs...)); err != nil {
		return blockError{err}
	}
	return nil
}

// callRecover calls f(i) and returns a panic in it as an error carrying the
// panic value and the panicking goroutine's stack.
func callRecover(f func(i int), i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	f(i)
	return nil
}

// blockError marks an error from executing a node's blocks — a kernel fault,
// a panic or a failure to build the executor — as opposed to a transport
// failure.
type blockError struct{ error }

func (e blockError) Unwrap() error { return e.error }

// emitFailure records a cluster-wide abort/timeout event so failed
// launches stay visible in the trace timeline alongside the phases that
// did complete.
func (s *Session) emitFailure(kernel string, err error) {
	if s.Trace == nil {
		return
	}
	phase := trace.PhaseAbort
	if errors.Is(err, transport.ErrTimeout) && !errors.Is(err, transport.ErrAborted) {
		phase = trace.PhaseTimeout
	}
	s.Trace.Add(trace.Event{StartSec: s.Cluster.MaxClock(), Node: -1,
		Phase: phase, Kernel: kernel, Detail: err.Error()})
}

// execConfig derives the machine execution config for a launch, estimating
// the working set from the bound buffers.
func (s *Session) execConfig(st *launchState) machine.ExecConfig {
	cfg := s.Exec
	if cfg.WorkingSetBytes == 0 {
		ws := 0.0
		for _, b := range st.binds {
			ws += float64(b.Bytes())
		}
		cfg.WorkingSetBytes = ws
	}
	return cfg
}

// verifyConsistency checks the cross-node consistency invariant on every
// buffer the kernel wrote (and, for safety, every bound buffer), in
// parameter order, so the error names the first diverging parameter.
func (s *Session) verifyConsistency(st *launchState) error {
	for _, p := range slices.Sorted(maps.Keys(st.binds)) {
		if err := s.Cluster.VerifyIdentical(st.binds[p]); err != nil {
			return fmt.Errorf("core: kernel %s violated consistency on %s: %w", st.kernel.Name, st.kernel.Params[p].Name, err)
		}
	}
	return nil
}

// Metadata returns the analysis result for a kernel.
func (s *Session) Metadata(kernel string) *analysis.Metadata { return s.Prog.Meta[kernel] }
