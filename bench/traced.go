package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"cucc/internal/core"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/serve"
	"cucc/internal/transport"
	"cucc/internal/vm"
)

// layers collects a traced run's per-layer rows by name.  Every row of
// BENCHMARK.json is reported by every workload; one a workload does not
// exercise reads 0.
type layers struct {
	spec   *spec
	values map[string]float64
	err    error
}

func newLayers(s *spec) *layers {
	l := &layers{spec: s, values: map[string]float64{}}
	for _, sm := range s.PerLayer {
		l.values[sm.Name] = 0
	}
	return l
}

// set records a row; a name BENCHMARK.json does not list is a bug here.
func (l *layers) set(name string, v float64) {
	if _, ok := l.values[name]; !ok && l.err == nil {
		l.err = fmt.Errorf("layer row %q is not in BENCHMARK.json", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.values[name] = v
}

// setProcess records what the whole process allocated and paused for
// between two memory readings, per job.
func (l *layers) setProcess(mem0, mem1 *runtime.MemStats, jobs float64) {
	l.set("process.alloc_kb_per_job", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/jobs)
	l.set("process.mallocs_per_job", float64(mem1.Mallocs-mem0.Mallocs)/jobs)
	l.set("process.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
}

// finish adds the end-of-run rows, writes the spans out and returns the
// rows in BENCHMARK.json's order.
func (l *layers) finish(tr *tracer, workload string, seed int64) ([]metric, error) {
	l.set("process.peak_rss_mb", peakRSSMB())
	if l.err != nil {
		return nil, l.err
	}
	dir := filepath.Join(l.spec.root, "bench", "out")
	if err := tr.write(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)); err != nil {
		return nil, err
	}
	return l.metrics(), nil
}

func (l *layers) metrics() []metric {
	out := make([]metric, 0, len(l.spec.PerLayer))
	for _, sm := range l.spec.PerLayer {
		out = append(out, metric{sm.Name, l.values[sm.Name], sm.Unit})
	}
	return out
}

// The traced run splits --seconds between the traced pass and the shorter
// comparison passes.
const (
	tracedShare = 0.5  // the traced pass
	refShare    = 0.25 // each untraced comparison pass (closed loop)
)

// closedCPU runs an untraced closed loop for seconds against e and returns
// CPU ms per verified job.
func (e *env) closedCPU(seconds float64) (float64, error) {
	cpu0 := cpuTime()
	ops, _, _ := e.runClosed(e.picks(3, closedPicks), time.Duration(seconds*float64(time.Second)), 0)
	cpu := cpuTime() - cpu0
	s := summarize(ops, false, 0)
	if s.failed > 0 || len(s.lat) == 0 {
		return 0, fmt.Errorf("%s: comparison pass: %d of %d jobs failed: %v", e.w.name, s.failed, s.attempted, s.byStatus)
	}
	return ms(cpu) / float64(len(s.lat)), nil
}

// variantCPU boots a daemon that differs from the default one only by cfg,
// runs the same untraced closed loop on it and returns CPU ms per verified
// job there.
func (w *workload) variantCPU(seed int64, cfg serve.Config, seconds float64) (float64, error) {
	alt, err := w.setup(seed, cfg)
	if err != nil {
		return 0, err
	}
	defer alt.close()
	return alt.closedCPU(seconds)
}

// runServingTraced is the traced run of a serving workload: a pass with a
// span around every request, the stage replay of every class, the
// standalone probes, and the on/off comparison passes.
func runServingTraced(sp *spec, w *workload, seed int64, seconds float64) (*result, error) {
	e, err := w.setup(seed, serve.Config{Executors: clients})
	if err != nil {
		return nil, err
	}
	defer e.close()
	L := newLayers(sp)
	tr := newTracer()

	// The traced pass, bracketed by the counters the program exposes.
	e.tr = tr
	snap0, cache0 := e.srv.Registry().Snapshot(), vm.ReadCacheStats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	r := e.load(seconds * tracedShare)
	runtime.ReadMemStats(&mem1)
	snap1, cache1 := e.srv.Registry().Snapshot(), vm.ReadCacheStats()
	e.tr = nil
	res := &result{workload: w.name, attempted: r.attempted(), failed: r.failed()}

	jobs := float64(r.tally.verified)
	all := append(append([]op{}, r.open...), r.closed...)
	lops, _, _ := r.latencyOps()

	// serve: what the client and the response say about each job.
	q := field(lops, func(o *op) float64 { return o.queueMs })
	run := field(lops, func(o *op) float64 { return o.runMs })
	L.set("serve.queue_ms_p50", percentile(q, 0.50))
	L.set("serve.queue_ms_p99", percentile(q, 0.99))
	L.set("serve.run_ms_p50", percentile(run, 0.50))
	L.set("serve.run_ms_p99", percentile(run, 0.99))
	L.set("serve.wire_ms_p50", percentile(field(lops, func(o *op) float64 { return ms(o.done-o.sent) - o.queueMs - o.runMs }), 0.50))
	L.set("serve.req_bytes_p50", percentile(field(all, func(o *op) float64 { return float64(o.reqBytes) }), 0.50))
	L.set("serve.resp_bytes_p50", percentile(field(all, func(o *op) float64 { return float64(o.respBytes) }), 0.50))
	L.set("serve.rejected", float64(r.openSum.byStatus[serve.StatusRejected]+r.closedSum.byStatus[serve.StatusRejected]))
	L.set("serve.errors", float64(res.failed-int(L.values["serve.rejected"])))
	for _, m := range r.clientRows() {
		L.set(m.name, m.value)
	}
	if len(w.tenants) > 1 {
		L.set("serve.tenant_share_err", tenantShareErr(r.closed, w.tenants))
	}
	for _, cl := range e.distinctClasses() {
		var v []float64
		for i := range all {
			if all[i].ok && e.classes[all[i].class] == cl {
				v = append(v, all[i].runMs)
			}
		}
		L.set("serve.run_ms_p50."+cl.name, median(v))
	}

	// Per-job counters, summed from every response.
	perJob := func(name string) float64 { return float64(r.tally.counters[name]) / jobs }
	L.set("core.blocks.native", perJob(core.MetricBlocksNative))
	L.set("core.blocks.vm", perJob(core.MetricBlocksVM))
	L.set("core.blocks.vm_lanes", perJob(core.MetricBlocksVMLanes))
	L.set("core.blocks.interp", perJob(core.MetricBlocksInterp))
	L.set("core.launches_trivial", perJob(core.MetricLaunchesTrivial))
	L.set("transport.msgs_per_job", perJob(transport.MetricSendMsgs))
	L.set("transport.bytes_per_job", perJob(transport.MetricSendBytes))
	L.set("recovery.checkpoints_per_job", perJob(recovery.MetricCheckpoints))
	L.set("metrics.counters_per_job", float64(r.tally.counterRows)/jobs)
	L.set("trace.events_per_job", float64(r.tally.traceEvents)/jobs)
	L.set("trace.dropped_per_job", float64(r.tally.traceDropped)/jobs)
	L.set("core.sim_total_ms", r.tally.simTotalSec/jobs*1e3)

	// core and transport wall time, from the daemon's aggregate registry.
	d := snap1.Delta(snap0)
	launches := float64(d.Histograms[core.MetricLaunchWallSec].Count)
	perLaunchMs := func(name string) float64 { return d.Histograms[name].Sum / launches * 1e3 }
	L.set("core.launch_ms", perLaunchMs(core.MetricLaunchWallSec))
	L.set("core.phase1_ms", perLaunchMs(core.MetricPartialWallSec))
	L.set("core.phase3_ms", perLaunchMs(core.MetricCallbackWallSec))
	L.set("core.launch_other_ms", L.values["core.launch_ms"]-L.values["core.phase1_ms"]-L.values["core.phase3_ms"])
	L.set("transport.recv_wait_ms_per_job", d.Histograms[transport.MetricRecvWaitSec].Sum/launches*1e3)
	if lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses); lookups > 0 {
		L.set("vm.compile_cache_hit_frac", float64(cache1.Hits-cache0.Hits)/lookups)
	}

	// process: what the whole process spent per job during the pass.
	L.setProcess(&mem0, &mem1, jobs)

	// Untraced comparison passes: tracing overhead, then the on/off costs.
	tracedCPU := ms(r.closedCPU) / float64(len(r.closedSum.lat))
	refSeconds := seconds * refShare
	baseCPU, err := e.closedCPU(refSeconds)
	if err != nil {
		return nil, err
	}
	L.set("trace.overhead_frac", (tracedCPU-baseCPU)/baseCPU)
	switch w.name {
	case "gather": // what default-on recovery adds to a job, over recovery off
		off, err := w.variantCPU(seed, serve.Config{Executors: clients, Recovery: &recovery.Policy{}}, refSeconds)
		if err != nil {
			return nil, err
		}
		L.set("recovery.cost_frac", (baseCPU-off)/off)
	case "serve-small": // what a journal would add to a job, over the default of none
		on, err := w.variantCPU(seed, serve.Config{Executors: clients, Journal: obs.NewJournal(4096)}, refSeconds)
		if err != nil {
			return nil, err
		}
		L.set("obs.journal_cost_frac", (on-baseCPU)/baseCPU)
	}

	// The stage replay: one layer budget per class.
	fmt.Printf("stage replay, %s (mean self time per stage and job, us)\n", w.name)
	shares := e.classShares()
	worst, match := 1.0, 1.0
	weighted := map[string]float64{}
	for _, cl := range e.distinctClasses() {
		rr, err := e.replay(cl, tr)
		if err != nil {
			return nil, err
		}
		rr.print()
		L.set("replay.coverage_frac."+cl.name, rr.coverage())
		if math.Abs(rr.coverage()-1) > math.Abs(worst-1) {
			worst = rr.coverage()
		}
		if !rr.statsMatch {
			match = 0
		}
		for name, v := range rr.stageUs {
			weighted[name] += v * shares[cl]
		}
		weighted["heap_mb"] += rr.heapMB * shares[cl]
		weighted["checkpoint_kb"] += rr.checkptKB * shares[cl]
	}
	L.set("replay.coverage_frac", worst)
	L.set("replay.stats_match", match)
	L.set("cluster.new_us", weighted["cluster.new"])
	L.set("cluster.fill_ms", weighted["cluster.fill"]/1e3)
	L.set("cluster.check_ms", weighted["cluster.check"]/1e3)
	L.set("cluster.heap_mb_per_job", weighted["heap_mb"])
	L.set("recovery.checkpoint_kb_per_job", weighted["checkpoint_kb"])
	L.set("metrics.snapshot_us", weighted["metrics.snapshot"])

	if err := probeFrames(tr, r.tally.sample, L.set); err != nil {
		return nil, err
	}
	if err := probeAll(tr, L.set); err != nil {
		return nil, err
	}
	res.metrics, err = L.finish(tr, w.name, seed)
	return res, err
}

// distinctClasses lists the workload's classes once each, in mix order.
func (e *env) distinctClasses() []*class {
	var out []*class
	seen := map[*class]bool{}
	for _, cl := range e.classes {
		if !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	return out
}

// classShares is each class's share of the mix.
func (e *env) classShares() map[*class]float64 {
	shares := map[*class]float64{}
	for _, cl := range e.classes {
		shares[cl] += 1 / float64(len(e.classes))
	}
	return shares
}

// tenantShareErr is the largest gap between a tenant's share of the
// verified completions and its share of the declared weights.
func tenantShareErr(ops []op, tenants []tenant) float64 {
	done := make([]float64, len(tenants))
	total, weights := 0.0, 0.0
	for i := range ops {
		if ops[i].ok {
			done[ops[i].tenant]++
			total++
		}
	}
	for _, t := range tenants {
		weights += float64(t.weight)
	}
	worst := 0.0
	for i, t := range tenants {
		worst = max(worst, math.Abs(done[i]/total-float64(t.weight)/weights))
	}
	return worst
}

func (r *replayResult) print() {
	fmt.Printf("  %-14s iters %3d  daemon run_ms %8.3f  replay %8.3f  coverage %.3f  stats_match %v\n",
		r.class.name, r.iters, r.daemonRunMs, r.runUs/1e3, r.coverage(), r.statsMatch)
	for _, group := range [][]string{runStages, postStages} {
		for _, name := range group {
			if v, ok := r.stageUs[name]; ok {
				fmt.Printf("    %-18s %10.1f\n", name, v)
			}
		}
	}
}

// runPaperSimTraced is paper-sim's traced run: the same rounds with a span
// per launch stage, then the probes.
func runPaperSimTraced(sp *spec, oracle map[string][]uint32, seed int64, seconds float64) (*result, error) {
	L := newLayers(sp)
	tr := newTracer()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	ps, err := runPaperPass(oracle, seconds*tracedShare, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	jobs := float64(len(ps.lat))
	L.setProcess(&mem0, &mem1, jobs)

	// The launch stages' self times, per launch.
	self := selfTimes(tr.spans)
	stage := map[string]float64{}
	for _, s := range tr.spans {
		if s.Parent > 0 {
			stage[s.Name] += self[s.ID-1]
		}
	}
	L.set("cluster.new_us", stage["cluster.new"]/jobs)
	L.set("cluster.fill_ms", stage["cluster.fill"]/jobs/1e3)
	L.set("cluster.check_ms", stage["cluster.check"]/jobs/1e3)
	L.set("core.launch_ms", stage["core.launch"]/jobs/1e3)

	untraced, err := runPaperPass(oracle, seconds*refShare, nil)
	if err != nil {
		return nil, err
	}
	tracedCPU, baseCPU := ms(ps.cpu)/jobs, ms(untraced.cpu)/float64(len(untraced.lat))
	L.set("trace.overhead_frac", (tracedCPU-baseCPU)/baseCPU)

	if err := probeAll(tr, L.set); err != nil {
		return nil, err
	}
	rows, err := L.finish(tr, "paper-sim", seed)
	if err != nil {
		return nil, err
	}
	return &result{
		workload:  "paper-sim",
		attempted: ps.attempted + untraced.attempted,
		failed:    ps.failed + untraced.failed,
		wrong:     ps.wrong + untraced.wrong,
		metrics:   rows,
	}, nil
}
