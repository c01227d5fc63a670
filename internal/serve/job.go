package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/trace"
)

// errDeadline is the cause runJob aborts a job's cluster with when its
// deadline fires.
var errDeadline = errors.New("serve: job deadline exceeded")

// sourceEntry is one cached compilation of source-mode kernel text.
// Sharing the *core.Program across jobs shares its *kir.Kernel values, and
// each kernel carries its register-machine program (vm.CompileCached
// stores it there), so a repeated source compiles once; dropping the entry
// frees the kernels and their programs together.
type sourceEntry struct {
	prog *core.Program
	err  error
}

// compileSource resolves source text through the server's bounded compile
// cache, reporting whether the result came from the cache.  Compile errors
// are cached too: a tenant hammering a broken kernel must not pay (or
// charge the server) a fresh parse per retry.
func (s *Server) compileSource(src string) (*core.Program, bool, error) {
	s.mu.Lock()
	if e, ok := s.sourceProgs[src]; ok {
		s.mu.Unlock()
		return e.prog, true, e.err
	}
	s.mu.Unlock()

	prog, err := core.Compile(src)

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.sourceProgs[src]; ok {
		return e.prog, true, e.err // a racer compiled it; share the winner
	}
	s.sourceProgs[src] = &sourceEntry{prog: prog, err: err}
	s.sourceOrder = append(s.sourceOrder, src)
	for len(s.sourceOrder) > s.sourceCap {
		delete(s.sourceProgs, s.sourceOrder[0])
		s.sourceOrder = s.sourceOrder[1:]
	}
	return prog, false, err
}

// runJob executes one admitted job on a fresh cluster with an isolated
// metrics registry and trace capture, and classifies the outcome.
//
// The cluster is per-job by design, for isolation and because Abort is
// sticky: each job gets its own registry (wired at construction — the
// metered transport wraps at New), its own transport that a deadline or a
// failed rank can kill without touching a neighbour, and node heaps no
// other tenant has a handle on.  What is warm across jobs is the
// compiled-program state (suite registry and source cache, whose kernels
// carry their VM programs) and the node memory itself: Close returns the
// heaps to cluster's free list and the next job's cluster gets them back
// cleared, so everything read from the cluster (output check, buffer CRCs)
// happens before the deferred Close below.
func (s *Server) runJob(j *job) *Response {
	start := time.Now()
	queueMs := start.Sub(j.enqueued).Seconds() * 1e3
	s.reg.Histogram(MetricQueueSec).Observe(start.Sub(j.enqueued).Seconds())
	sc := s.scope(j.tenant, j.id)

	resp := &Response{ID: j.req.ID, JobID: j.id, QueueMs: queueMs}
	fail := func(status, msg string) *Response {
		resp.Status = status
		resp.Err = msg
		resp.RunMs = time.Since(start).Seconds() * 1e3
		s.reg.Histogram(MetricRunSec).Observe(time.Since(start).Seconds())
		s.reg.Counter(MetricJobsFailed).Inc()
		s.reg.Counter(obs.TenantMetric(j.tenant, obs.TenantFieldFailed)).Inc()
		sc.Record(obs.EvFail, -1, describe(j.req), msg)
		return resp
	}

	remaining := time.Until(j.deadline)
	if remaining <= 0 {
		s.reg.Counter(MetricJobsDeadline).Inc()
		return fail(StatusError, "deadline exceeded while queued")
	}

	eng, err := cluster.ParseEngine(j.req.Engine)
	if err != nil {
		return fail(StatusError, err.Error())
	}
	coll, err := csched.ParseChoice(j.req.Collective)
	if err != nil {
		return fail(StatusError, err.Error())
	}
	nodes := j.req.Nodes
	if nodes <= 0 {
		nodes = s.cfg.Nodes
	}
	if nodes > s.cfg.MaxNodes {
		return fail(StatusError, fmt.Sprintf("serve: %d nodes exceeds server cap %d", nodes, s.cfg.MaxNodes))
	}

	jobReg := metrics.New()
	traceCap := j.req.TraceCap
	if traceCap <= 0 {
		traceCap = s.cfg.TraceCap
	}
	rec := trace.NewCapped(traceCap)

	c, err := cluster.New(cluster.Config{
		Nodes:           nodes,
		Machine:         machine.Intel6226(),
		Net:             simnet.IB100(),
		MaxBytesPerNode: s.cfg.MaxBytesPerNode,
		RecvTimeout:     s.cfg.RecvTimeout,
		Fault:           s.cfg.Fault,
		Metrics:         jobReg,
		Recovery:        *s.cfg.Recovery,
		Journal:         sc,
	})
	if err != nil {
		return fail(StatusError, err.Error())
	}
	defer c.Close()

	// Deadline propagation: past the deadline the job's cluster aborts,
	// so every rank blocked in a collective unblocks with ErrAborted and
	// the launch fails promptly instead of holding an executor.
	var deadlineHit atomic.Bool
	timer := time.AfterFunc(remaining, func() { deadlineHit.Store(true); c.Abort(errDeadline) })
	defer timer.Stop()

	workers := j.req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}

	var stats *core.Stats
	var runErr error
	if j.req.Program != "" {
		stats, runErr = s.runSuiteJob(j, c, rec, jobReg, sc, eng, coll, workers)
	} else {
		stats, runErr = s.runSourceJob(j, c, rec, jobReg, sc, eng, coll, workers, resp)
	}

	timer.Stop()
	resp.RunMs = time.Since(start).Seconds() * 1e3
	s.reg.Histogram(MetricRunSec).Observe(time.Since(start).Seconds())
	resp.Stats = stats
	resp.Counters = jobReg.Snapshot().Counters
	resp.TraceEvents = len(rec.Events())
	resp.TraceDropped = rec.Dropped()
	if fs := c.Faults(); fs != nil {
		resp.FaultsInjected = fs.Drops + fs.Delays + fs.Duplicates + fs.Corruptions + fs.SendFailures
	}
	// The per-job registry's counters and histograms fold into the server
	// aggregate; merging after the snapshot keeps resp.Counters exactly
	// the job's own view.
	s.reg.Merge(jobReg.Snapshot())

	// Flight recorder: a failed job — or one that only completed by
	// restoring from a checkpoint — leaves a post-mortem bundle.
	if runErr != nil || (stats != nil && stats.Restores > 0) {
		s.flightRecord(j, runErr, stats, jobReg, rec)
	}

	if runErr != nil {
		if deadlineHit.Load() {
			s.reg.Counter(MetricJobsDeadline).Inc()
			return fail(StatusError, errDeadline.Error())
		}
		return fail(StatusError, runErr.Error())
	}
	resp.Status = StatusOK
	s.reg.Counter(MetricJobsCompleted).Inc()
	s.reg.Counter(obs.TenantMetric(j.tenant, obs.TenantFieldCompleted)).Inc()
	s.reg.Histogram(obs.TenantMetric(j.tenant, obs.TenantFieldLatency)).
		Observe(time.Since(j.enqueued).Seconds())
	if sc.On() {
		restores := 0
		if stats != nil {
			restores = stats.Restores
		}
		sc.Record(obs.EvComplete, -1, describe(j.req),
			fmt.Sprintf("ok: restores=%d", restores))
	}
	return resp
}

// dumpJournalWindow is how many recent journal events a flight-recorder
// dump captures: enough causal context around the failure without shipping
// the whole ring.
const dumpJournalWindow = 256

// flightRecord bundles the recent journal window, the job's isolated
// metrics snapshot, and its capped trace into a post-mortem dump: retained
// in memory (LastDump) and, when PostmortemDir is set, written to
// postmortem-job<id>.json for cuccprof -postmortem.
func (s *Server) flightRecord(j *job, runErr error, stats *core.Stats, jobReg *metrics.Registry, rec *trace.Recorder) {
	if s.journal == nil && s.cfg.PostmortemDir == "" {
		return
	}
	d := &obs.Dump{
		Schema:       obs.DumpSchemaVersion,
		Reason:       obs.DumpReasonRecovery,
		Tenant:       j.tenant,
		Job:          j.id,
		What:         describe(j.req),
		Journal:      s.journal.Tail(dumpJournalWindow),
		Metrics:      jobReg.Snapshot(),
		TraceDropped: rec.Dropped(),
	}
	if runErr != nil {
		d.Reason = obs.DumpReasonFailure
		d.Err = runErr.Error()
	}
	d.Trace = append(d.Trace, rec.Events()...)
	trace.SortEvents(d.Trace)
	s.lastDump.Store(d)
	s.reg.Counter(MetricDumps).Inc()
	if s.cfg.PostmortemDir == "" {
		return
	}
	data, err := d.JSON()
	if err == nil {
		path := filepath.Join(s.cfg.PostmortemDir, fmt.Sprintf("postmortem-job%d.json", j.id))
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		s.reg.Counter(MetricDumpErrors).Inc()
	}
}

// runSuiteJob builds a named evaluation program at Small scale, launches
// it, and verifies the output against the Go reference.
func (s *Server) runSuiteJob(j *job, c *cluster.Cluster, rec *trace.Recorder, reg *metrics.Registry, sc obs.Scope, eng cluster.Engine, coll csched.Choice, workers int) (*core.Stats, error) {
	p, ok := suites.ByName(j.req.Program)
	if !ok {
		return nil, fmt.Errorf("serve: unknown program %q", j.req.Program)
	}
	inst, err := p.Build(c, p.Small)
	if err != nil {
		return nil, err
	}
	sess := core.NewSession(c, p.Compiled)
	sess.Metrics = reg
	sess.Trace = rec
	sess.Obs = sc
	sess.Host.Workers = workers
	sess.Host.Engine = eng
	sess.Collective = coll
	stats, err := sess.Launch(inst.Spec)
	if err != nil {
		return nil, err
	}
	if err := inst.Check(); err != nil {
		return stats, fmt.Errorf("serve: output check failed: %w", err)
	}
	return stats, nil
}

// runSourceJob compiles the request's kernel source (through the shared
// cache), allocates its buffer arguments, launches, and checksums every
// buffer on node 0 so the client — and the chaos tests — can compare
// results bitwise across runs.
func (s *Server) runSourceJob(j *job, c *cluster.Cluster, rec *trace.Recorder, reg *metrics.Registry, sc obs.Scope, eng cluster.Engine, coll csched.Choice, workers int, resp *Response) (*core.Stats, error) {
	prog, cached, err := s.compileSource(j.req.Source)
	if sc.On() {
		how := "compiled"
		if cached {
			how = "cached"
		}
		if err != nil {
			how += " (error)"
		}
		sc.Record(obs.EvCompile, -1, j.req.Kernel, how)
	}
	if err != nil {
		return nil, err
	}
	if prog.Kernel(j.req.Kernel) == nil {
		return nil, fmt.Errorf("serve: source has no kernel %q", j.req.Kernel)
	}

	// Every argument is validated before the first Alloc: cluster.Alloc
	// panics past the per-node cap, and a tenant's count must fail its own
	// job, not the daemon.  The running sum is compared by division so that
	// count x element size cannot overflow on the way to the check.
	limit := s.cfg.MaxBytesPerNode
	if limit <= 0 {
		limit = math.MaxInt
	}
	elems := make([]kir.ScalarType, len(j.req.Args))
	total := 0
	for i, as := range j.req.Args {
		switch as.Kind {
		case "buf":
			switch as.Elem {
			case "f32":
				elems[i] = kir.F32
			case "i32":
				elems[i] = kir.I32
			case "u8":
				elems[i] = kir.U8
			default:
				return nil, fmt.Errorf("serve: arg %d: unknown buffer elem %q", i, as.Elem)
			}
			if as.Count <= 0 {
				return nil, fmt.Errorf("serve: arg %d: buffer needs a positive count", i)
			}
			size := elems[i].Size()
			if as.Count > (limit-total)/size {
				return nil, fmt.Errorf("serve: arg %d: %d %s elements on top of %d bytes exceed the per-node limit of %d bytes",
					i, as.Count, as.Elem, total, limit)
			}
			total += as.Count * size
		case "int", "float":
		default:
			return nil, fmt.Errorf("serve: arg %d: unknown kind %q", i, as.Kind)
		}
	}

	// Allocate every buffer, then fill: the first fill commits the node
	// heaps once, at their final size.
	var args []core.Arg
	var bufs []cluster.Buffer
	var bufAt []int // bufs[k] is argument bufAt[k]
	for i, as := range j.req.Args {
		switch as.Kind {
		case "buf":
			b := c.Alloc(elems[i], as.Count)
			bufs, bufAt = append(bufs, b), append(bufAt, i)
			args = append(args, core.BufArg(b))
		case "int":
			args = append(args, core.IntArg(as.Int))
		case "float":
			args = append(args, core.FloatArg(as.Float))
		}
	}
	for k, b := range bufs {
		if err := fillBuffer(c, b, j.req.Args[bufAt[k]]); err != nil {
			return nil, fmt.Errorf("serve: arg %d: %w", bufAt[k], err)
		}
	}

	sess := core.NewSession(c, prog)
	sess.Metrics = reg
	sess.Trace = rec
	sess.Obs = sc
	sess.Host.Workers = workers
	sess.Host.Engine = eng
	sess.Collective = coll
	sess.Verify = true // cross-node consistency is part of the contract
	spec := core.LaunchSpec{
		Kernel: j.req.Kernel,
		// Passed through as sent (an absent Y is Dim3's "unset"); core
		// rejects non-positive dimensions.
		Grid:  interp.Dim3{X: j.req.GridX, Y: j.req.GridY},
		Block: interp.Dim3{X: j.req.BlockX, Y: j.req.BlockY},
		Args:  args,
	}
	stats, err := sess.Launch(spec)
	if err != nil {
		return nil, err
	}
	for _, b := range bufs {
		resp.BufCRCs = append(resp.BufCRCs, crc32.ChecksumIEEE(c.Region(0, b)))
	}
	return stats, nil
}

// fillBuffer initializes a buffer argument on every node with the spec's
// deterministic pattern (constant Fill, plus the index under Ramp).
func fillBuffer(c *cluster.Cluster, b cluster.Buffer, as ArgSpec) error {
	if as.Fill == 0 && !as.Ramp {
		return nil // zero-initialized by Alloc
	}
	val := func(i int) float64 {
		v := as.Fill
		if as.Ramp {
			v += float64(i)
		}
		return v
	}
	switch b.Elem {
	case kir.F32:
		data := make([]float32, b.Count)
		for i := range data {
			data[i] = float32(val(i))
		}
		return c.WriteAllF32(b, data)
	case kir.I32:
		data := make([]int32, b.Count)
		for i := range data {
			data[i] = int32(val(i))
		}
		return c.WriteAllI32(b, data)
	case kir.U8:
		data := make([]byte, b.Count)
		for i := range data {
			data[i] = byte(int(val(i)))
		}
		return c.WriteAll(b, data)
	}
	return fmt.Errorf("unfillable element type %v", b.Elem)
}
