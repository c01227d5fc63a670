package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cucc/internal/analysis"
	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/lang"
	"cucc/internal/metrics"
	"cucc/internal/recovery"
	"cucc/internal/serve"
	"cucc/internal/trace"
	"cucc/internal/vm"
)

// The stage replay performs one job's stages itself, in serve/job.go's
// order and configuration, with one span per call into a layer.  Stages
// inside the daemon's run_ms window come first; the post-run stages
// (snapshot, merge, frame encode/decode) are what the daemon does between
// stamping run_ms and the response reaching the client.
var runStages = []string{
	"cluster.new", "lang.parse", "analysis.analyze", "vm.compile",
	"cluster.fill", "core.launch", "core.phase1", "core.phase3", "cluster.check",
}
var postStages = []string{"metrics.snapshot", "metrics.merge", "serve.encode", "serve.decode"}

const (
	replayIters  = 200
	replayBudget = 2500 * time.Millisecond // per class, so heavy classes run fewer iterations
	replayMin    = 5
)

// replayResult is one class's layer budget.
type replayResult struct {
	class *class
	iters int
	// stageUs is the mean self time of each stage per job, in microseconds.
	stageUs map[string]float64
	// runUs is the sum of stageUs over the in-run stages; daemonRunMs is the
	// daemon's own mean run_ms for the same requests, sent one at a time
	// between the replay iterations.
	runUs       float64
	daemonRunMs float64
	statsMatch  bool
	heapMB      float64
	checkptKB   float64
}

func (r *replayResult) coverage() float64 { return r.runUs / 1e3 / r.daemonRunMs }

// replayOnce performs one job of class cl under root and returns the launch
// stats; it records the job's heap and checkpoint sizes in res.
func (cl *class) replayOnce(tr *tracer, root int, cached *core.Program, agg *metrics.Registry, seed int64, res *replayResult) (*core.Stats, error) {
	req := cl.request("a", 1, seed)
	var frame bytes.Buffer
	if err := serve.WriteFrame(&frame, req); err != nil {
		return nil, err
	}

	s := tr.begin(root, "cluster.new")
	jobReg := metrics.New()
	rec := trace.NewCapped(4096)
	c, err := cluster.New(jobClusterConfig(cl.clusterNodes(), jobReg))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	var sess *core.Session
	var spec core.LaunchSpec
	var check func() error
	if cl.source {
		prog := cached
		if cl.fresh {
			s = tr.begin(root, "lang.parse")
			mod, err := lang.Parse(req.Source)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin(root, "analysis.analyze")
			prog = &core.Program{Module: mod, Meta: analysis.AnalyzeModule(mod)}
			tr.end(s)
			// The daemon compiles lazily inside Launch, on the VM cache
			// miss; compiling here first gives the stage its own span and
			// leaves Launch a hit, so the sum is unchanged.
			s = tr.begin(root, "vm.compile")
			_, err = vm.CompileCached(prog.Kernel(req.Kernel))
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		s = tr.begin(root, "cluster.fill")
		args, bufs, err := sourceArgs(c, req)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		sess = core.NewSession(c, prog)
		sess.Verify = true
		spec = sourceSpec(req, args)
		check = func() error {
			if got := bufCRCs(c, bufs); !equalCRCs(got, cl.want) {
				return fmt.Errorf("replay %s: CRCs %v, oracle %v", cl.name, got, cl.want)
			}
			return nil
		}
	} else {
		s = tr.begin(root, "cluster.fill")
		inst, err := cl.prog.Build(c, cl.prog.Small)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		sess = core.NewSession(c, cl.prog.Compiled)
		spec, check = inst.Spec, inst.Check
	}
	sess.Metrics, sess.Trace = jobReg, rec

	t0 := time.Now()
	stats, err := sess.Launch(spec)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	// phase1/phase3 are read from the job registry's wall histograms, the
	// only inside view of a launch the program exposes today.
	snap := jobReg.Snapshot()
	p1 := time.Duration(snap.Histograms[core.MetricPartialWallSec].Sum * float64(time.Second))
	p3 := time.Duration(snap.Histograms[core.MetricCallbackWallSec].Sum * float64(time.Second))
	launch := tr.add(root, "core.launch", t0, t1)
	tr.add(launch, "core.phase1", t0, t0.Add(p1))
	tr.add(launch, "core.phase3", t1.Add(-p3), t1)

	s = tr.begin(root, "cluster.check")
	err = check()
	tr.end(s)
	if err != nil {
		return nil, err
	}

	resp := &serve.Response{ID: 1, JobID: 1, Status: serve.StatusOK, QueueMs: 0.1, RunMs: ms(time.Since(t0)), Stats: stats}
	s = tr.begin(root, "metrics.snapshot")
	resp.Counters = jobReg.Snapshot().Counters
	resp.TraceEvents, resp.TraceDropped = len(rec.Events()), rec.Dropped()
	tr.end(s)
	s = tr.begin(root, "metrics.merge")
	agg.Merge(jobReg.Snapshot())
	tr.end(s)
	if cl.source {
		resp.BufCRCs = cl.want
	}
	var out bytes.Buffer
	s = tr.begin(root, "serve.encode")
	err = serve.WriteFrame(&out, resp)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root, "serve.decode")
	var gotReq serve.Request
	err = serve.ReadFrame(&frame, &gotReq)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	res.heapMB = float64(c.BytesPerNode()) * float64(c.N()) / 1e6
	res.checkptKB = float64(snap.Counters[recovery.MetricCheckpoints]) * float64(writtenBytes(sess, spec)) / 1024
	return stats, nil
}

// writtenBytes is the size of the buffers a kernel writes: what one barrier
// checkpoint copies.
func writtenBytes(sess *core.Session, spec core.LaunchSpec) int {
	md := sess.Metadata(spec.Kernel)
	if md == nil {
		return 0
	}
	seen := map[int]bool{}
	total := 0
	for _, bm := range md.Buffers {
		if a := spec.Args[bm.Param]; a.IsBuf && !seen[a.Buf.Off] {
			seen[a.Buf.Off] = true
			total += a.Buf.Bytes()
		}
	}
	return total
}

// replay runs the stage replay of one class: each iteration sends the
// class's job to the daemon alone (nothing else in flight), then performs
// the same job's stages in process.  Comparing the two on an idle machine is
// what makes coverage a statement about the stage list, not about
// contention.
func (e *env) replay(cl *class, tr *tracer) (*replayResult, error) {
	res := &replayResult{class: cl, stageUs: map[string]float64{}, statsMatch: true}
	agg := metrics.New()
	var cached *core.Program
	if cl.source && !cl.fresh {
		var err error
		if cached, err = core.Compile(cl.tmpl.Source); err != nil {
			return nil, err
		}
	}
	first := len(tr.spans)
	var daemonRun []float64
	start := time.Now()
	for res.iters < replayIters && (res.iters < replayMin || time.Since(start) < replayBudget) {
		req := cl.request("a", 1, e.seed)
		req.ID = uint64(res.iters + 1)
		var resp serve.Response
		if _, err := e.conns[0].send(req); err != nil {
			return nil, err
		}
		if _, err := e.conns[0].recv(&resp); err != nil {
			return nil, err
		}
		if !cl.verified(&resp) {
			return nil, fmt.Errorf("replay %s: daemon job failed: %s %s", cl.name, resp.Status, resp.Err)
		}
		daemonRun = append(daemonRun, resp.RunMs)

		root := tr.begin(0, "replay:"+cl.name)
		stats, err := cl.replayOnce(tr, root, cached, agg, e.seed, res)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		// Simulated figures are deterministic, so the replay's Stats must
		// equal the daemon's for the same request, field for field.
		mine, _ := json.Marshal(stats)
		theirs, _ := json.Marshal(resp.Stats)
		if !bytes.Equal(mine, theirs) {
			res.statsMatch = false
		}
		res.iters++
	}

	// Per-stage means and the in-run total, from self times.  Means, not
	// medians: a job's ranks are picked up by one core or by both, so solo
	// run times on two cores are bimodal and their medians wander between
	// the modes, while sums over the same iterations compare cleanly — and
	// stage means add up to the total.
	self := selfTimes(tr.spans)
	inRun := map[string]bool{}
	for _, name := range runStages {
		inRun[name] = true
	}
	n := float64(res.iters)
	for _, sp := range tr.spans[first:] {
		if sp.Parent == 0 {
			continue
		}
		res.stageUs[sp.Name] += self[sp.ID-1] / n
		if inRun[sp.Name] {
			res.runUs += self[sp.ID-1] / n
		}
	}
	res.daemonRunMs = mean(daemonRun)
	return res, nil
}
