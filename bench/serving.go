package main

import (
	"fmt"
	"math/rand"
	"time"

	"cucc/internal/serve"
	"cucc/internal/suites"
)

const (
	// clients is the number of pipelined connections, and of closed-loop
	// clients: one per CPU of the 2-core reference box.
	clients = 2
	// warmupJobs is the fixed warm-up every set-up runs before the first
	// timed op; it fills the daemon's source cache and the VM compile cache.
	warmupJobs = 200
	// A run sets up at least setupMinRounds times, and on until
	// setupMaxRounds or setupBudget is reached; setup_s is the median round.
	// Quick set-ups are the noisy ones, and they get the most rounds.
	setupMinRounds = 3
	setupMaxRounds = 7
	setupBudget    = 2 * time.Second
)

// medianSetup runs setup repeatedly (see setupMinRounds) and returns the
// median round's seconds.  Every round but the last is torn down by
// teardown, which may be nil.
func medianSetup(setup func() error, teardown func()) (float64, error) {
	var rounds []float64
	start := time.Now()
	for len(rounds) < setupMinRounds || (len(rounds) < setupMaxRounds && time.Since(start) < setupBudget) {
		if len(rounds) > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return median(rounds), nil
}

// constructSuite builds the nine suite programs afresh.  suites.Registry()
// memoizes, so calling this charges every set-up round what only the first
// would otherwise pay.
func constructSuite() {
	suites.VecAdd()
	suites.All()
}

// env is one booted daemon with its client connections.
type env struct {
	w   *workload
	srv *serve.Server
	phaseRun
}

// setup does everything a run needs before its first timed op: build the
// suite programs, compute the oracle CRCs, boot the daemon in process, dial
// it over loopback and run the warm-up.
func (w *workload) setup(seed int64, cfg serve.Config) (*env, error) {
	constructSuite()

	e := &env{w: w, phaseRun: phaseRun{tenants: w.tenants, seed: seed}}
	byName := map[string]*class{}
	for _, name := range w.mix {
		cl := byName[name]
		if cl == nil {
			var err error
			if cl, err = newClass(name); err != nil {
				return nil, err
			}
			if cl.source {
				if err := cl.oracle(); err != nil {
					return nil, err
				}
			}
			byName[name] = cl
		}
		e.classes = append(e.classes, cl)
	}

	e.srv = serve.NewServer(cfg)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.srv.Drain()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := dial(addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}

	ops, _, _ := e.runClosed(e.picks(0, warmupJobs), 0, warmupJobs)
	if s := summarize(ops, false, 0); s.failed > 0 {
		e.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up jobs failed: %v", w.name, s.failed, s.attempted, s.byStatus)
	}
	return e, nil
}

func (e *env) close() {
	for _, c := range e.conns {
		c.c.Close()
	}
	e.srv.Drain()
}

// rng returns the generator for one purpose of a run, so that what one phase
// draws never shifts what another sees.
func (e *env) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*16 + purpose))
}

// picks pre-draws n closed-loop jobs.
func (e *env) picks(purpose int64, n int) []arrival {
	return drawSchedule(e.rng(purpose), len(e.w.mix), e.tenants, n, 0, 0)
}

// closedPicks is how many closed-loop jobs are pre-drawn; a run that
// outlasts them wraps around.
const closedPicks = 1 << 16

// loadResult is what the timed phases of one serving pass produced.
type loadResult struct {
	open       []op // empty when the workload has no open-loop phase
	openSum    phaseSummary
	gen        genStats
	closed     []op
	closedSum  phaseSummary
	closedWall time.Duration
	closedCPU  time.Duration
	tally      *tally
}

// latencyOps is the phase the latency layer rows are read from: the
// open-loop phase when the workload has one (latency from due time), else
// the closed loop.
func (r *loadResult) latencyOps() ([]op, *phaseSummary, bool) {
	if len(r.open) > 0 {
		return r.open, &r.openSum, true
	}
	return r.closed, &r.closedSum, false
}

func (r *loadResult) attempted() int { return r.openSum.attempted + r.closedSum.attempted }
func (r *loadResult) failed() int    { return r.openSum.failed + r.closedSum.failed }

// load runs the workload's timed phases for seconds in total.
func (e *env) load(seconds float64) *loadResult {
	r := &loadResult{tally: newTally()}
	total := time.Duration(seconds * float64(time.Second))
	closedDur := total
	if e.w.openRate > 0 {
		openDur := time.Duration(float64(total) * e.w.openShare)
		closedDur = total - openDur
		sched := drawSchedule(e.rng(1), len(e.w.mix), e.tenants, 0, e.w.openRate, openDur)
		var t *tally
		r.open, t, r.gen = e.runOpen(sched)
		r.tally.add(t)
		r.openSum = summarize(r.open, true, e.w.limitMs)
	}
	picks := e.picks(2, closedPicks)
	cpu0 := cpuTime()
	var t *tally
	r.closed, t, r.closedWall = e.runClosed(picks, closedDur, 0)
	r.closedCPU = cpuTime() - cpu0
	r.tally.add(t)
	r.closedSum = summarize(r.closed, false, e.w.limitMs)
	return r
}

// endToEnd derives the end-to-end metrics from a pass.  All four come from
// the closed-loop phase: with both executors always busy it is the steady
// one.  The open-loop phase at a third of capacity leaves the CPUs idle
// between arrivals, and on a shared host its latencies follow the host's
// wake-up behaviour more than the code (README, "Spread"), so they are layer
// rows.
func (r *loadResult) endToEnd(setupS float64) []metric {
	lat := r.closedSum.lat
	okClosed := float64(len(lat))
	return []metric{
		{"setup_s", setupS, "s"},
		{"latency_p50_ms", percentile(lat, 0.50), "ms"},
		{"latency_p99_ms", percentile(lat, 0.99), "ms"},
		{"throughput_jobs_s", okClosed / r.closedWall.Seconds(), "jobs/s"},
		{"cpu_ms_per_job", ms(r.closedCPU) / okClosed, "ms"},
	}
}

// runServing is the untraced run of a serving workload.
func runServing(w *workload, seed int64, seconds float64) (*result, error) {
	var e *env
	setupS, err := medianSetup(func() (err error) {
		e, err = w.setup(seed, serve.Config{Executors: clients})
		return err
	}, func() { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()

	r := e.load(seconds)
	res := &result{
		workload:  w.name,
		attempted: r.attempted(),
		failed:    r.failed(),
		metrics:   r.endToEnd(setupS),
	}
	res.notes = append([]metric{
		{"open_loop_jobs", float64(len(r.openSum.lat)), "count"},
		{"closed_loop_jobs", float64(len(r.closedSum.lat)), "count"},
	}, r.clientRows()...)
	return res, nil
}

// clientRows are the layer rows the client side of a pass yields by itself:
// the open-loop phase's latency from due time and its limit, the furthest
// tail percentile the sample supports, and how well the generator kept its
// schedule.  The untraced run prints them as notes; the traced run reports
// them.
func (r *loadResult) clientRows() []metric {
	ops, lat, open := r.latencyOps()
	q := tailPercentile(len(lat.lat))
	rows := []metric{
		{"serve.latency_tail_pct", q * 100, "%"},
		{"serve.latency_tail_ms", percentile(lat.lat, q), "ms"},
	}
	if !open {
		return rows
	}
	lags := make([]float64, len(r.gen.lags))
	for i, l := range r.gen.lags {
		lags[i] = ms(l)
	}
	return append(rows,
		metric{"serve.open_latency_p50_ms", percentile(lat.lat, 0.50), "ms"},
		metric{"serve.open_latency_p99_ms", percentile(lat.lat, 0.99), "ms"},
		metric{"serve.within_limit_frac", float64(lat.withinLimit) / float64(len(ops)), "frac"},
		metric{"gen.lag_ms_p99", percentile(sorted(lags), 0.99), "ms"},
		metric{"gen.inflight_max", float64(r.gen.inflightMax), "count"},
	)
}
