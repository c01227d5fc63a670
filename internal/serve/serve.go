package serve

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/transport"
)

// Server-level metric names.  These live in the server's aggregate registry
// alongside the merged per-job counters; the "serve." prefix keeps them
// disjoint from job-produced names so the aggregation invariant (aggregate
// counter == sum of per-job counters) stays checkable.
const (
	MetricJobsSubmitted = "serve.jobs.submitted"
	MetricJobsAdmitted  = "serve.jobs.admitted"
	MetricJobsRejected  = "serve.jobs.rejected"
	MetricJobsInvalid   = "serve.jobs.invalid"
	MetricJobsCompleted = "serve.jobs.completed"
	MetricJobsFailed    = "serve.jobs.failed"
	MetricJobsDeadline  = "serve.jobs.deadline_exceeded"
	MetricQueueSec      = "serve.job.queue_seconds"
	MetricRunSec        = "serve.job.run_seconds"
	MetricQueueDepth    = "serve.queue.depth"
	MetricDumps         = "serve.postmortem.dumps"
	MetricDumpErrors    = "serve.postmortem.errors"
)

// Config tunes the daemon.
type Config struct {
	// QueueCap bounds the admission queue across all tenants; submissions
	// past it are rejected with a retry-after hint (backpressure instead
	// of unbounded memory).  <= 0 selects 64.
	QueueCap int
	// Executors is the number of jobs run concurrently.  <= 0 selects 2.
	Executors int
	// Nodes is the default job cluster size (request may override, capped
	// by MaxNodes).  <= 0 selects 4.
	Nodes int
	// MaxNodes caps per-request cluster sizes.  <= 0 selects 32.
	MaxNodes int
	// Workers is the default intra-node worker width (0 = all CPUs).
	Workers int
	// RecvTimeout is each job cluster's transport receive deadline
	// (0 = none; the job deadline still aborts a hung job).
	RecvTimeout time.Duration
	// DefaultDeadline bounds jobs that do not set one (queue wait +
	// execution).  <= 0 selects 30s.
	DefaultDeadline time.Duration
	// TraceCap is the default per-job trace capture bound.  <= 0 selects
	// 4096 events.
	TraceCap int
	// Fault, when non-nil, injects transport faults into every job's
	// cluster (chaos testing the serving path).
	Fault *transport.FaultConfig
	// MaxBytesPerNode caps each job cluster's per-node heap (0 = 256 MiB;
	// a service must bound what one job can allocate).
	MaxBytesPerNode int
	// Metrics is the server-level aggregate registry; nil allocates a
	// fresh one.  Per-job registries are always isolated and merged into
	// this one at job completion.
	Metrics *metrics.Registry
	// Recovery is the elastic fault-recovery policy applied to every job's
	// cluster.  nil selects the enabled default — a serving layer should
	// survive a rank loss rather than fail the job; point at a zero
	// recovery.Policy to disable.
	Recovery *recovery.Policy
	// Journal, when non-nil, is the structured event journal every stage of
	// the serving path records into (admission, dispatch, compile, launch
	// phases, recovery, drain).  Nil disables journaling at zero cost.
	Journal *obs.Journal
	// SLO configures per-tenant service-level objectives for the /slo page
	// (the zero value yields latency-free objectives at the default
	// attainment target).
	SLO obs.SLOConfig
	// SampleEvery, when > 0, starts a background sampler snapshotting the
	// aggregate registry on this interval into a bounded delta ring (the
	// qps / bytes-per-sec / queue-depth / restore-rate series on /slo).
	SampleEvery time.Duration
	// PostmortemDir, when non-empty, is where flight-recorder dumps are
	// written on job failure or recovery (postmortem-job<id>.json, readable
	// by cuccprof -postmortem).  The most recent dump is always retained in
	// memory regardless (Server.LastDump).
	PostmortemDir string
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 32
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 4096
	}
	if c.MaxBytesPerNode == 0 {
		c.MaxBytesPerNode = 256 << 20
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if c.Recovery == nil {
		c.Recovery = &recovery.Policy{Enabled: true}
	}
	return c
}

// job is one admitted submission flowing through the scheduler.
type job struct {
	id       uint64
	req      *Request
	tenant   string
	enqueued time.Time
	deadline time.Time
	done     chan *Response
}

// tenantQueue is one tenant's FIFO plus its weighted-round-robin state.
type tenantQueue struct {
	name   string
	weight int
	// credit is the deficit-round-robin allowance: replenished by weight
	// each scheduling round, spent one per dispatch.  A tenant with
	// weight w gets w dispatches per round regardless of how deep its
	// queue is — the fairness mechanism that keeps a flooding tenant from
	// starving the rest.
	credit int
	jobs   []*job
}

// jobState is one row of the /jobs status page.
type jobState struct {
	ID       uint64
	Tenant   string
	What     string // program name or "source:<kernel>"
	State    string // "queued" | "running" | StatusOK | StatusError | ...
	Enqueued time.Time
	QueueMs  float64
	RunMs    float64
	Err      string
}

// testJobStart, when non-nil, is invoked by an executor after dequeuing a
// job and before running it.  Test-only gate: lets the drain test hold a
// job in the running state deterministically.
var testJobStart func(*job)

// Server schedules compile+launch jobs over a bounded multi-tenant queue
// onto a pool of executor goroutines.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	journal *obs.Journal
	sampler *obs.Sampler

	// lastDump retains the most recent flight-recorder dump (nil until a
	// job fails or recovers), independent of PostmortemDir.
	lastDump atomic.Pointer[obs.Dump]

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantQueue
	order    []string // sorted tenant names: deterministic WRR scan order
	rrPos    int
	queued   int
	running  int
	draining bool

	// sourceProgs caches core.Compile results by source text, so repeated
	// source-mode jobs share one parsed module — and therefore one
	// *kir.Kernel, which carries its compiled VM program across jobs.
	// Bounded FIFO; this bound is the only one on source kernels and
	// their programs.
	sourceProgs  map[string]*sourceEntry
	sourceOrder  []string
	sourceCap    int
	lastRunSecs  float64 // EWMA of job run time, feeds retry-after hints
	jobStates    map[uint64]*jobState
	doneStates   []uint64 // finished job IDs, oldest first (bounded)
	nextJobID    uint64
	executorsRun sync.WaitGroup

	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	connsWG   sync.WaitGroup
}

// NewServer builds and starts the scheduler (executor goroutines run
// immediately; listeners are attached separately with Serve/Listen).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Metrics,
		journal:     cfg.Journal,
		tenants:     map[string]*tenantQueue{},
		sourceProgs: map[string]*sourceEntry{},
		sourceCap:   64,
		jobStates:   map[uint64]*jobState{},
		conns:       map[net.Conn]struct{}{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.SampleEvery > 0 {
		s.sampler = obs.NewSampler(s.reg, cfg.SampleEvery, 0)
		s.sampler.Start()
	}
	s.reg.GaugeFunc(MetricQueueDepth, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	s.reg.GaugeFunc("serve.jobs.running", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	for i := 0; i < cfg.Executors; i++ {
		s.executorsRun.Add(1)
		go s.executor()
	}
	return s
}

// Registry returns the server's aggregate registry (server counters plus
// every finished job's merged counters and histograms).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Journal returns the server's structured event journal (nil when
// journaling is disabled).
func (s *Server) Journal() *obs.Journal { return s.journal }

// Sampler returns the server's time-series sampler (nil when sampling is
// disabled).
func (s *Server) Sampler() *obs.Sampler { return s.sampler }

// LastDump returns the most recent flight-recorder dump, nil until a job
// has failed or recovered.
func (s *Server) LastDump() *obs.Dump { return s.lastDump.Load() }

// Draining reports whether the server has entered graceful drain (the
// /healthz readiness signal).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// scope returns the journal handle stamped with one job's identity.
func (s *Server) scope(tenant string, id uint64) obs.Scope {
	return obs.Scope{J: s.journal, Tenant: tenant, Job: id}
}

// Submit runs one job through admission, scheduling, and execution,
// blocking until it finishes or is rejected.  Safe for concurrent use; this
// is the in-process entry the connection handlers and the load generator
// share.
func (s *Server) Submit(req *Request) *Response {
	s.reg.Counter(MetricJobsSubmitted).Inc()
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if err := validate(req); err != nil {
		s.reg.Counter(MetricJobsInvalid).Inc()
		s.scope(tenant, 0).Record(obs.EvReject, -1, "", "invalid: "+err.Error())
		return &Response{ID: req.ID, Status: StatusError, Err: err.Error()}
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	now := time.Now()
	j := &job{
		req:      req,
		tenant:   tenant,
		enqueued: now,
		deadline: now.Add(deadline),
		done:     make(chan *Response, 1),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectTenant(tenant)
		s.scope(tenant, 0).Record(obs.EvReject, -1, "", "server draining")
		return &Response{ID: req.ID, Status: StatusRejected, Err: "server draining"}
	}
	if s.queued >= s.cfg.QueueCap {
		retry := s.retryAfterLocked()
		queued := s.queued
		s.mu.Unlock()
		s.rejectTenant(tenant)
		sc := s.scope(tenant, 0)
		if sc.On() {
			sc.Record(obs.EvReject, -1, "", fmt.Sprintf("admission queue full (%d queued)", queued))
		}
		return &Response{
			ID: req.ID, Status: StatusRejected,
			Err:          fmt.Sprintf("admission queue full (%d queued)", queued),
			RetryAfterMs: retry,
			Queued:       queued,
		}
	}
	s.nextJobID++
	j.id = s.nextJobID
	tq := s.tenants[tenant]
	if tq == nil {
		w := req.Weight
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{name: tenant, weight: w}
		s.tenants[tenant] = tq
		s.order = append(s.order, tenant)
		sort.Strings(s.order)
	}
	tq.jobs = append(tq.jobs, j)
	s.queued++
	depth := s.queued
	s.jobStates[j.id] = &jobState{
		ID: j.id, Tenant: tenant, What: describe(req),
		State: "queued", Enqueued: now,
	}
	s.mu.Unlock()
	s.reg.Counter(MetricJobsAdmitted).Inc()
	sc := s.scope(tenant, j.id)
	if sc.On() {
		sc.Record(obs.EvAdmit, -1, describe(req), fmt.Sprintf("queued (depth %d)", depth))
	}
	s.cond.Signal()

	return <-j.done
}

// rejectTenant records one admission rejection against both the
// server-level counter and the tenant's SLO accounting.
func (s *Server) rejectTenant(tenant string) {
	s.reg.Counter(MetricJobsRejected).Inc()
	s.reg.Counter(obs.TenantMetric(tenant, obs.TenantFieldRejected)).Inc()
}

// retryAfterLocked estimates when a rejected client should retry: the time
// for the executors to work one full queue off, from the observed run-time
// EWMA (floor 1ms so the hint is never zero).
func (s *Server) retryAfterLocked() int {
	per := s.lastRunSecs
	if per <= 0 {
		per = 0.01
	}
	ms := int(per * float64(s.queued+1) / float64(s.cfg.Executors) * 1e3)
	if ms < 1 {
		ms = 1
	}
	return ms
}

func validate(req *Request) error {
	switch {
	case req.Program == "" && req.Source == "":
		return errors.New("serve: request needs a program name or kernel source")
	case req.Program != "" && req.Source != "":
		return errors.New("serve: program and source are mutually exclusive")
	case req.Source != "" && req.Kernel == "":
		return errors.New("serve: source mode needs a kernel name")
	}
	return nil
}

func describe(req *Request) string {
	if req.Program != "" {
		return req.Program
	}
	return "source:" + req.Kernel
}

// executor is one scheduling loop: pick under the lock, run outside it.
func (s *Server) executor() {
	defer s.executorsRun.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queued == 0 && s.draining {
			s.mu.Unlock()
			return
		}
		j := s.pickLocked()
		s.queued--
		s.running++
		if st := s.jobStates[j.id]; st != nil {
			st.State = "running"
			st.QueueMs = time.Since(j.enqueued).Seconds() * 1e3
		}
		s.mu.Unlock()
		s.scope(j.tenant, j.id).Record(obs.EvDispatch, -1, describe(j.req), "")

		if testJobStart != nil {
			testJobStart(j)
		}
		resp := s.runJob(j)

		s.mu.Lock()
		s.running--
		s.finishLocked(j, resp)
		s.mu.Unlock()
		j.done <- resp
		// Between jobs is where an executor can afford to let a thread
		// the kernel has queued behind this one run (see osYield).
		osYield()
	}
}

// pickLocked dequeues the next job under deficit weighted round-robin:
// scan tenants in deterministic order from the rotor position, dispatching
// from the first non-empty queue with credit; when no non-empty queue has
// credit, replenish every tenant's credit by its weight (a new round) and
// rescan.  Over one round each backlogged tenant gets dispatches
// proportional to its weight, so a tenant flooding the queue only ever
// consumes its share.
//
// Precondition: s.queued > 0.
func (s *Server) pickLocked() *job {
	for {
		for i := 0; i < len(s.order); i++ {
			tq := s.tenants[s.order[(s.rrPos+i)%len(s.order)]]
			if len(tq.jobs) == 0 || tq.credit <= 0 {
				continue
			}
			j := tq.jobs[0]
			tq.jobs = tq.jobs[1:]
			tq.credit--
			// Advance the rotor past this tenant so equal-weight tenants
			// interleave instead of one draining its whole credit first.
			s.rrPos = (s.rrPos + i + 1) % len(s.order)
			return j
		}
		// No queue with credit: start a new round.  Credit does not
		// accumulate across rounds (idle tenants must not hoard bursts).
		for _, name := range s.order {
			tq := s.tenants[name]
			if len(tq.jobs) > 0 {
				tq.credit = tq.weight
			} else {
				tq.credit = 0
			}
		}
	}
}

// finishLocked records a finished job's terminal state and run-time EWMA.
func (s *Server) finishLocked(j *job, resp *Response) {
	if st := s.jobStates[j.id]; st != nil {
		st.State = resp.Status
		st.RunMs = resp.RunMs
		st.Err = resp.Err
		s.doneStates = append(s.doneStates, j.id)
		// Retain the most recent 64 finished rows on /jobs.
		for len(s.doneStates) > 64 {
			delete(s.jobStates, s.doneStates[0])
			s.doneStates = s.doneStates[1:]
		}
	}
	// Only completed jobs feed the EWMA.  Failures finish fast (compile
	// errors, validation, aborts), and folding their near-zero run times in
	// used to collapse the retry-after hint during a failure burst — exactly
	// when honest backpressure matters most.
	if resp.Status != StatusOK {
		return
	}
	run := resp.RunMs / 1e3
	if run > 0 {
		if s.lastRunSecs == 0 {
			s.lastRunSecs = run
		} else {
			s.lastRunSecs = 0.8*s.lastRunSecs + 0.2*run
		}
	}
}

// Listen binds a TCP listener and serves connections on it in the
// background, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lnMu.Lock()
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve accepts connections until the listener closes (Drain closes every
// listener attached with Listen).
func (s *Server) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.lnMu.Lock()
		if s.conns == nil {
			s.lnMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connsWG.Add(1)
		s.lnMu.Unlock()
		go s.handleConn(conn)
	}
}

// handleConn reads request frames and answers each on its own goroutine, so
// a connection can keep many jobs in flight (responses are written under a
// per-connection mutex and matched by ID).
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
		conn.Close()
		s.connsWG.Done()
	}()
	var wmu sync.Mutex
	var inflight sync.WaitGroup
	defer inflight.Wait()
	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			return
		}
		inflight.Add(1)
		go func(req Request) {
			defer inflight.Done()
			resp := s.Submit(&req)
			wmu.Lock()
			defer wmu.Unlock()
			WriteFrame(conn, resp) // a dead conn just ends the handler
		}(req)
	}
}

// Drain gracefully shuts the server down: stop admitting (new Submits are
// rejected), close the listeners, reject every queued job cleanly, wait for
// in-flight jobs to finish, then close the remaining connections once their
// responses are flushed.  Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var rejected []*job
	for _, name := range s.order {
		tq := s.tenants[name]
		rejected = append(rejected, tq.jobs...)
		tq.jobs = nil
	}
	s.queued = 0
	for _, j := range rejected {
		if st := s.jobStates[j.id]; st != nil {
			st.State = StatusRejected
			st.Err = "server draining"
		}
	}
	s.mu.Unlock()
	if already {
		return
	}
	if s.journal != nil {
		s.journal.Record(obs.Event{Type: obs.EvDrain, Rank: -1,
			Detail: fmt.Sprintf("draining: %d queued jobs rejected", len(rejected))})
	}

	s.lnMu.Lock()
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.lnMu.Unlock()

	for _, j := range rejected {
		s.rejectTenant(j.tenant)
		s.scope(j.tenant, j.id).Record(obs.EvReject, -1, "", "server draining")
		j.done <- &Response{ID: j.req.ID, Status: StatusRejected, Err: "server draining"}
	}
	s.cond.Broadcast()
	s.executorsRun.Wait()

	// Every in-flight response is now in its connection goroutine's hands.
	// Half-close each connection's read side so the frame readers return
	// while pending response writes still flush, then wait the handlers
	// out (each closes its own connection after its writes finish).
	s.lnMu.Lock()
	for conn := range s.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			conn.Close()
		}
	}
	s.lnMu.Unlock()
	s.connsWG.Wait()
	s.lnMu.Lock()
	s.conns = nil
	s.lnMu.Unlock()
	s.sampler.Stop()
}
