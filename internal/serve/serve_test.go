package serve

import (
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/recovery"
)

const vecAddSrc = `
__global__ void vecadd(float* out, float* a, float* b, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n)
        out[id] = a[id] + b[id];
}
`

func vecAddSourceReq(tenant string) *Request {
	return &Request{
		Tenant: tenant,
		Source: vecAddSrc,
		Kernel: "vecadd",
		GridX:  4, BlockX: 64,
		Args: []ArgSpec{
			{Kind: "buf", Elem: "f32", Count: 256},
			{Kind: "buf", Elem: "f32", Count: 256, Ramp: true},
			{Kind: "buf", Elem: "f32", Count: 256, Fill: 2},
			{Kind: "int", Int: 256},
		},
		Nodes: 2,
	}
}

// TestEndToEnd boots a server on loopback and runs one suite job and one
// source job through the wire protocol.
func TestEndToEnd(t *testing.T) {
	srv := NewServer(Config{Executors: 2, Nodes: 2, Workers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Do(&Request{Tenant: "t1", Program: "VecAdd", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("suite job: status %q err %q", resp.Status, resp.Err)
	}
	if resp.Stats == nil {
		t.Error("suite job: no stats")
	}
	if resp.Counters["core.launch.total"] != 1 {
		t.Errorf("suite job counters: launch.total = %d, want 1", resp.Counters["core.launch.total"])
	}
	if resp.TraceEvents == 0 {
		t.Error("suite job: no trace events captured")
	}

	resp, err = client.Do(vecAddSourceReq("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("source job: status %q err %q", resp.Status, resp.Err)
	}
	if len(resp.BufCRCs) != 3 {
		t.Fatalf("source job: %d buffer CRCs, want 3", len(resp.BufCRCs))
	}
	// Same job again: deterministic inputs, so identical checksums — and
	// the second compile must hit the shared source cache.
	resp2, err := client.Do(vecAddSourceReq("t1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range resp.BufCRCs {
		if resp.BufCRCs[i] != resp2.BufCRCs[i] {
			t.Errorf("buffer %d CRC differs across identical jobs: %08x vs %08x",
				i, resp.BufCRCs[i], resp2.BufCRCs[i])
		}
	}

	// Bad requests are answered, not dropped.
	resp, err = client.Do(&Request{Tenant: "t1", Program: "NoSuchProgram"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Err, "NoSuchProgram") {
		t.Errorf("unknown program: status %q err %q", resp.Status, resp.Err)
	}
	resp, err = client.Do(&Request{Tenant: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Errorf("empty request: status %q, want error", resp.Status)
	}
}

// TestPerJobRegistryIsolation runs jobs concurrently and checks the PR-4
// cross-check invariant at the serving layer: each job's counter map is its
// own (exactly one launch each), and every non-server aggregate counter
// equals the sum over per-job counters.
func TestPerJobRegistryIsolation(t *testing.T) {
	srv := NewServer(Config{Executors: 4, Nodes: 2, Workers: 1})
	defer srv.Drain()

	const jobs = 8
	responses := make([]*Response, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = srv.Submit(&Request{Tenant: fmt.Sprintf("t%d", i%3), Program: "VecAdd", Nodes: 2})
		}(i)
	}
	wg.Wait()

	perJobSums := map[string]int64{}
	for i, resp := range responses {
		if resp.Status != StatusOK {
			t.Fatalf("job %d: status %q err %q", i, resp.Status, resp.Err)
		}
		// Isolation: a job observes exactly its own single launch, never a
		// concurrent job's.
		if got := resp.Counters["core.launch.total"]; got != 1 {
			t.Errorf("job %d observed %d launches in its registry, want exactly 1", i, got)
		}
		for k, v := range resp.Counters {
			perJobSums[k] += v
		}
	}

	agg := srv.Registry().Snapshot()
	for k, want := range perJobSums {
		if got := agg.Counters[k]; got != want {
			t.Errorf("aggregate %s = %d, want %d (sum of per-job deltas)", k, got, want)
		}
	}
	for k, v := range agg.Counters {
		// serve.* and tenant.* are service-level accounting (queue time,
		// admission outcomes) written to the aggregate directly — they are
		// not part of any per-job registry.
		if strings.HasPrefix(k, "serve.") || strings.HasPrefix(k, "tenant.") {
			continue
		}
		if v != perJobSums[k] {
			t.Errorf("aggregate has %s = %d not accounted for by per-job sums (%d)", k, v, perJobSums[k])
		}
	}
	if agg.Counters[MetricJobsCompleted] != jobs {
		t.Errorf("completed = %d, want %d", agg.Counters[MetricJobsCompleted], jobs)
	}
}

// gate installs a testJobStart hook that reports each dispatched job on
// started and holds it until release is closed (or per-job token sent).
type gate struct {
	started chan *job
	release chan struct{}
}

func installGate() *gate {
	g := &gate{started: make(chan *job, 64), release: make(chan struct{}, 64)}
	testJobStart = func(j *job) {
		g.started <- j
		<-g.release
	}
	return g
}

func removeGate() { testJobStart = nil }

// TestWeightedFairness floods tenant A while quiet tenant B holds a few
// jobs, with one executor so the dispatch order is the entire scheduling
// story.  Equal weights must interleave A and B strictly while both are
// backlogged: B's k-th job waits at most k*(1+weightA/weightB) dispatch
// slots, which is the queueing-delay (p99) bound the ISSUE asks for,
// asserted deterministically instead of via wall-clock percentiles.
func TestWeightedFairness(t *testing.T) {
	g := installGate()
	defer removeGate()
	srv := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1, QueueCap: 64})
	defer srv.Drain()

	// Occupy the single executor so subsequent submissions pile up in the
	// tenant queues with a deterministic backlog.
	plugDone := make(chan *Response, 1)
	go func() { plugDone <- srv.Submit(&Request{Tenant: "plug", Program: "VecAdd", Nodes: 1}) }()
	<-g.started

	const floodJobs, quietJobs = 12, 4
	var wg sync.WaitGroup
	for i := 0; i < floodJobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Submit(&Request{Tenant: "flood", Program: "VecAdd", Nodes: 1})
		}()
	}
	for i := 0; i < quietJobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Submit(&Request{Tenant: "quiet", Program: "VecAdd", Nodes: 1})
		}()
	}
	// Wait until every submission is enqueued.
	deadline := time.After(5 * time.Second)
	for {
		srv.mu.Lock()
		q := srv.queued
		srv.mu.Unlock()
		if q == floodJobs+quietJobs {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("backlog never formed: %d queued", q)
		case <-time.After(time.Millisecond):
		}
	}

	// Release the plug and record the dispatch order.
	g.release <- struct{}{}
	var order []string
	for i := 0; i < floodJobs+quietJobs; i++ {
		select {
		case j := <-g.started:
			order = append(order, j.tenant)
			g.release <- struct{}{}
		case <-time.After(10 * time.Second):
			t.Fatalf("dispatch %d never happened; order so far %v", i, order)
		}
	}
	wg.Wait()
	<-plugDone

	// While the quiet tenant is backlogged, the flooding tenant may take
	// at most 1 dispatch (its weight) between consecutive quiet dispatches.
	lastQuiet := -1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i] == "quiet" {
			lastQuiet = i
			break
		}
	}
	runLen := 0
	for i := 0; i <= lastQuiet; i++ {
		if order[i] == "flood" {
			runLen++
			if runLen > 1 {
				t.Fatalf("flooding tenant got %d consecutive dispatches while quiet was backlogged: %v", runLen, order)
			}
		} else {
			runLen = 0
		}
	}
	// The quiet tenant's last job must clear well before the flood's
	// backlog does: its worst dispatch slot is 2*quietJobs.
	if lastQuiet >= 2*quietJobs {
		t.Errorf("quiet tenant's last dispatch at slot %d, want < %d: %v", lastQuiet, 2*quietJobs, order)
	}
}

// TestDrain checks graceful shutdown: the in-flight job completes and its
// response is delivered, queued jobs are cleanly rejected, new submissions
// are rejected, and the listener closes.
func TestDrain(t *testing.T) {
	g := installGate()
	defer removeGate()
	srv := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	inflight := make(chan *Response, 1)
	go func() { inflight <- srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	<-g.started // the job is running and held

	queued := make(chan *Response, 1)
	go func() { queued <- srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	deadline := time.After(5 * time.Second)
	for {
		srv.mu.Lock()
		q := srv.queued
		srv.mu.Unlock()
		if q == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("second job never queued")
		case <-time.After(time.Millisecond):
		}
	}

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()

	// The queued job is rejected immediately, while the in-flight job is
	// still held at the gate.
	select {
	case resp := <-queued:
		if resp.Status != StatusRejected || !strings.Contains(resp.Err, "draining") {
			t.Errorf("queued job: status %q err %q, want clean draining rejection", resp.Status, resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued job was not rejected during drain")
	}

	// Release the in-flight job: it must complete normally.
	g.release <- struct{}{}
	select {
	case resp := <-inflight:
		if resp.Status != StatusOK {
			t.Errorf("in-flight job: status %q err %q, want ok", resp.Status, resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight job never completed")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}

	// New submissions are rejected; the listener no longer accepts.
	if resp := srv.Submit(&Request{Program: "VecAdd"}); resp.Status != StatusRejected {
		t.Errorf("post-drain submit: status %q, want rejected", resp.Status)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		// A dial may be accepted by the OS backlog momentarily; a frame
		// write+read must fail.
		conn.SetDeadline(time.Now().Add(time.Second))
		if err := WriteFrame(conn, &Request{Program: "VecAdd"}); err == nil {
			var resp Response
			if err := ReadFrame(conn, &resp); err == nil {
				t.Error("post-drain connection still served a request")
			}
		}
		conn.Close()
	}
}

// TestQueueFullRejects fills the bounded queue behind a held executor and
// checks over-admission is rejected with a retry-after hint.
func TestQueueFullRejects(t *testing.T) {
	g := installGate()
	defer removeGate()
	srv := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1, QueueCap: 2})
	defer func() {
		// The test body drains the backlog before this runs.
		srv.Drain()
		removeGate()
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	<-g.started // executor busy

	// Fill the queue to its cap.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	}
	deadline := time.After(5 * time.Second)
	for {
		srv.mu.Lock()
		q := srv.queued
		srv.mu.Unlock()
		if q == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		case <-time.After(time.Millisecond):
		}
	}

	resp := srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1})
	if resp.Status != StatusRejected {
		t.Fatalf("over-admission: status %q err %q, want rejected", resp.Status, resp.Err)
	}
	if resp.RetryAfterMs <= 0 {
		t.Errorf("rejection carries no retry-after hint: %+v", resp)
	}
	if srv.Registry().Snapshot().Counters[MetricJobsRejected] == 0 {
		t.Error("rejected counter not incremented")
	}

	// Drain the backlog so the deferred cleanup terminates quickly: release
	// the held first job, then walk the two queued jobs through the gate.
	g.release <- struct{}{}
	for i := 0; i < 2; i++ {
		select {
		case <-g.started:
			g.release <- struct{}{}
		case <-time.After(10 * time.Second):
			t.Fatal("backlog never drained")
		}
	}
	wg.Wait()
}

// TestDeadlineInQueue checks deadline propagation for jobs that exceed
// their budget before ever being dispatched.
func TestDeadlineInQueue(t *testing.T) {
	g := installGate()
	defer removeGate()
	srv := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1})
	defer srv.Drain()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	<-g.started

	done := make(chan *Response, 1)
	go func() { done <- srv.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1, DeadlineMs: 20}) }()
	time.Sleep(60 * time.Millisecond) // let the deadline lapse while queued
	g.release <- struct{}{}
	select {
	case j := <-g.started:
		_ = j
		g.release <- struct{}{}
	case <-time.After(5 * time.Second):
	}
	select {
	case resp := <-done:
		if resp.Status != StatusError || !strings.Contains(resp.Err, "deadline") {
			t.Errorf("expired job: status %q err %q, want deadline error", resp.Status, resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("expired job never resolved")
	}
	wg.Wait()
	if srv.Registry().Snapshot().Counters[MetricJobsDeadline] == 0 {
		t.Error("deadline counter not incremented")
	}
}

// TestJobsPage checks the /jobs status page renders queue state and
// finished rows.
func TestJobsPage(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1})
	defer srv.Drain()
	if resp := srv.Submit(&Request{Tenant: "pageview", Program: "VecAdd", Nodes: 1}); resp.Status != StatusOK {
		t.Fatalf("job failed: %q %q", resp.Status, resp.Err)
	}
	rr := httptest.NewRecorder()
	srv.JobsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/jobs", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "pageview") || !strings.Contains(body, "VecAdd") || !strings.Contains(body, "ok") {
		t.Errorf("/jobs page missing expected rows:\n%s", body)
	}
	rr = httptest.NewRecorder()
	srv.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), MetricJobsCompleted) {
		t.Errorf("/metrics page missing server counters:\n%s", rr.Body.String())
	}
}

// TestEWMAIgnoresFailedJobs pins the retry-after regression: failed jobs
// finish near-instantly, and folding their run times into the service-rate
// EWMA used to collapse the backpressure hint exactly during failure
// bursts.  Only StatusOK jobs may move the EWMA.
func TestEWMAIgnoresFailedJobs(t *testing.T) {
	srv := NewServer(Config{Executors: 2, Nodes: 1, Workers: 1})
	defer srv.Drain()

	srv.mu.Lock()
	srv.lastRunSecs = 0.5
	srv.finishLocked(&job{id: 1000}, &Response{Status: StatusError, RunMs: 1})
	srv.finishLocked(&job{id: 1001}, &Response{Status: StatusRejected, RunMs: 1})
	if srv.lastRunSecs != 0.5 {
		t.Errorf("EWMA moved on non-OK jobs: %g, want 0.5", srv.lastRunSecs)
	}
	srv.finishLocked(&job{id: 1002}, &Response{Status: StatusOK, RunMs: 1000})
	want := 0.8*0.5 + 0.2*1.0
	if diff := srv.lastRunSecs - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("EWMA after OK job = %g, want %g", srv.lastRunSecs, want)
	}
	srv.mu.Unlock()

	// End to end: a burst of fast-failing jobs must leave the EWMA alone.
	srv.mu.Lock()
	srv.lastRunSecs = 2.0
	srv.mu.Unlock()
	for i := 0; i < 5; i++ {
		if resp := srv.Submit(&Request{Tenant: "burst", Program: "NoSuchProgram"}); resp.Status != StatusError {
			t.Fatalf("expected failing job, got %q", resp.Status)
		}
	}
	srv.mu.Lock()
	got := srv.lastRunSecs
	srv.mu.Unlock()
	if got != 2.0 {
		t.Errorf("EWMA after failure burst = %g, want 2.0 (failures must not feed it)", got)
	}
}

// TestRetryAfterHintFormula pins the published backpressure formula: the
// hint is the time for the executors to work the present backlog off at
// the observed service rate, and the rejection reports the backlog depth.
func TestRetryAfterHintFormula(t *testing.T) {
	srv := NewServer(Config{Executors: 2, Nodes: 1, Workers: 1})
	defer srv.Drain()
	srv.mu.Lock()
	srv.lastRunSecs = 2.0
	srv.queued = 5
	want := int(2.0 * float64(5+1) / 2.0 * 1e3)
	got := srv.retryAfterLocked()
	srv.queued = 0
	srv.mu.Unlock()
	if got != want {
		t.Errorf("retryAfterLocked = %d, want %d", got, want)
	}

	// The queue-full rejection carries both the hint and the depth, and
	// /metrics exports the depth gauge.
	g := installGate()
	defer removeGate()
	srvQ := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1, QueueCap: 1})
	defer func() {
		srvQ.Drain()
		removeGate()
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srvQ.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	<-g.started
	wg.Add(1)
	go func() { defer wg.Done(); srvQ.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1}) }()
	deadline := time.After(5 * time.Second)
	for {
		srvQ.mu.Lock()
		q := srvQ.queued
		srvQ.mu.Unlock()
		if q == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		case <-time.After(time.Millisecond):
		}
	}
	resp := srvQ.Submit(&Request{Tenant: "a", Program: "VecAdd", Nodes: 1})
	if resp.Status != StatusRejected {
		t.Fatalf("over-admission: status %q, want rejected", resp.Status)
	}
	if resp.Queued != 1 {
		t.Errorf("rejection Queued = %d, want 1", resp.Queued)
	}
	if resp.RetryAfterMs <= 0 {
		t.Errorf("rejection RetryAfterMs = %d, want > 0", resp.RetryAfterMs)
	}
	rr := httptest.NewRecorder()
	srvQ.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "serve.queue.depth") {
		t.Errorf("/metrics missing serve.queue.depth gauge:\n%s", rr.Body.String())
	}
	g.release <- struct{}{}
	for i := 0; i < 1; i++ {
		select {
		case <-g.started:
			g.release <- struct{}{}
		case <-time.After(10 * time.Second):
			t.Fatal("backlog never drained")
		}
	}
	wg.Wait()
}

// TestSourceJobDefaultEngine: a source job that names no engine runs on the
// lane-batched register machine (its blocks count under
// core.blocks.vm_lanes, none under core.blocks.vm), and the names "vm" and
// "vm-lanes" are both accepted and select that same loop: identical buffer
// checksums and identical Stats.
func TestSourceJobDefaultEngine(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 2, Workers: 1})
	defer srv.Drain()
	run := func(engine string) *Response {
		req := vecAddSourceReq("t1")
		req.Engine = engine
		resp := srv.Submit(req)
		if resp.Status != StatusOK {
			t.Fatalf("engine %q: status %q err %q", engine, resp.Status, resp.Err)
		}
		return resp
	}
	def := run("")
	if def.Counters[core.MetricBlocksVMLanes] == 0 || def.Counters[core.MetricBlocksVM] != 0 {
		t.Errorf("no engine named: %s = %d, %s = %d; want > 0 and 0",
			core.MetricBlocksVMLanes, def.Counters[core.MetricBlocksVMLanes],
			core.MetricBlocksVM, def.Counters[core.MetricBlocksVM])
	}
	for _, name := range []string{"vm", "vm-lanes"} {
		got := run(name)
		if !reflect.DeepEqual(got.BufCRCs, def.BufCRCs) {
			t.Errorf("engine %q: buffer CRCs %08x differ from the default's %08x", name, got.BufCRCs, def.BufCRCs)
		}
		if !reflect.DeepEqual(got.Stats, def.Stats) {
			t.Errorf("engine %q: stats differ from the default's:\n%+v\n%+v", name, got.Stats, def.Stats)
		}
	}
}

// TestSourceJobBlockFaultNotRecovered: under the default Config (recovery
// on), a source job whose kernel indexes out of range in node 0's first
// block fails as a job error without a single restore: a kernel fault fails
// the same way on whichever rank replays the block.
func TestSourceJobBlockFaultNotRecovered(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Drain()
	resp := srv.Submit(&Request{
		Tenant: "t1",
		Source: `
__global__ void index_gather(float* out, float* in, int* idx) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    out[id] = in[idx[id]];
}`,
		Kernel: "index_gather",
		GridX:  63, BlockX: 4,
		Args: []ArgSpec{
			{Kind: "buf", Elem: "f32", Count: 252},
			{Kind: "buf", Elem: "f32", Count: 252, Ramp: true},
			// idx[i] = i - 1: only thread 0 of block 0 is out of range.
			{Kind: "buf", Elem: "i32", Count: 252, Fill: -1, Ramp: true},
		},
		Nodes: 4,
	})
	if resp.Status != StatusError || !strings.Contains(resp.Err, "out of bounds") {
		t.Fatalf("status %q err %q, want a job error naming the out-of-bounds load", resp.Status, resp.Err)
	}
	if n := resp.Counters[recovery.MetricRestores]; n != 0 {
		t.Errorf("%s = %d, want 0", recovery.MetricRestores, n)
	}
}

// TestHostileLaunchDims: non-positive launch dimensions — including the
// pair of negatives whose product is a plausible block count — fail the job
// with a per-job error; the executor survives to run the next job.
func TestHostileLaunchDims(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 2, Workers: 1})
	defer srv.Drain()
	for _, d := range [][4]int{
		{-4, -1, 64, 0}, {4, 0, -64, -1}, {4, -1, 64, 0}, {0, 0, 64, 0}, {4, 0, 0, 0},
	} {
		for _, engine := range []string{"", "vm", "interp"} {
			req := vecAddSourceReq("t1")
			req.Engine = engine
			req.GridX, req.GridY, req.BlockX, req.BlockY = d[0], d[1], d[2], d[3]
			resp := srv.Submit(req)
			if resp.Status != StatusError || !strings.Contains(resp.Err, "launch dimension") {
				t.Errorf("dims %v engine %q: status %q err %q, want a launch-dimension error",
					d, engine, resp.Status, resp.Err)
			}
		}
	}
	if resp := srv.Submit(vecAddSourceReq("t1")); resp.Status != StatusOK {
		t.Fatalf("well-formed job after the hostile ones: status %q err %q", resp.Status, resp.Err)
	}
}

// TestHostileBufferCounts: a buffer count whose byte size exceeds the
// per-node cap, one whose byte size overflows int, and a set of buffers
// that only exceeds the cap in sum each fail their own job before any node
// memory is committed; the executor survives to run the next job.
func TestHostileBufferCounts(t *testing.T) {
	const maxBytes = 1 << 20
	srv := NewServer(Config{Executors: 1, Nodes: 2, Workers: 1, MaxBytesPerNode: maxBytes})
	defer srv.Drain()
	for _, counts := range [][3]int{
		{maxBytes, 256, 256},                       // 4 x the cap in one f32 buffer
		{math.MaxInt - 3, 256, 256},                // count x 4 overflows
		{math.MaxInt / 4, math.MaxInt / 4, 256},    // each product fits, the sum overflows
		{maxBytes / 8, maxBytes / 8, maxBytes / 8}, // 1.5 x the cap in sum
	} {
		req := vecAddSourceReq("t1")
		for i, n := range counts {
			req.Args[i].Count = n
		}
		resp := srv.Submit(req)
		if resp.Status != StatusError || !strings.Contains(resp.Err, "per-node limit") {
			t.Errorf("counts %v: status %q err %q, want a per-node-limit error", counts, resp.Status, resp.Err)
		}
	}
	if resp := srv.Submit(vecAddSourceReq("t1")); resp.Status != StatusOK {
		t.Fatalf("well-formed job after the hostile ones: status %q err %q", resp.Status, resp.Err)
	}
}

// TestTenantCollectives: each collective string a tenant can send gets its
// own answer.  A malformed one, or a chunk count above the bound, fails the
// job before a cluster is built (no job counters); a valid one runs; and
// the executor survives to run the next job.
func TestTenantCollectives(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 2, Workers: 1})
	defer srv.Drain()
	for _, tc := range []struct {
		coll, status, errHas string
	}{
		{"bogus", StatusError, "unknown collective"},
		{"pipeline:0", StatusError, "bad pipeline chunk count"},
		{fmt.Sprintf("pipeline:%d", csched.MaxPipelineChunks+1), StatusError, strconv.Itoa(csched.MaxPipelineChunks)},
		{"ring+overlap", StatusOK, ""},
	} {
		req := vecAddSourceReq("t1")
		req.Collective = tc.coll
		resp := srv.Submit(req)
		if resp.Status != tc.status || !strings.Contains(resp.Err, tc.errHas) {
			t.Errorf("collective %q: status %q err %q, want status %q and an error containing %q",
				tc.coll, resp.Status, resp.Err, tc.status, tc.errHas)
		}
		if tc.status == StatusError && resp.Counters != nil {
			t.Errorf("collective %q: the job built a cluster before failing", tc.coll)
		}
	}
	if resp := srv.Submit(vecAddSourceReq("t1")); resp.Status != StatusOK {
		t.Fatalf("well-formed job after the others: status %q err %q", resp.Status, resp.Err)
	}
}

// TestSuiteJobOverCap: a suite job whose buffers exceed the per-node cap
// fails its own job with an error naming the cap, and the executor survives
// to run the next job.
func TestSuiteJobOverCap(t *testing.T) {
	const maxBytes = 1 << 20 // Transpose's Small buffers are 1 MiB each
	srv := NewServer(Config{Executors: 1, Workers: 1, MaxBytesPerNode: maxBytes})
	defer srv.Drain()
	resp := srv.Submit(&Request{Tenant: "t1", Program: "Transpose", Nodes: 2})
	if resp.Status != StatusError || !strings.Contains(resp.Err, strconv.Itoa(maxBytes)) {
		t.Errorf("over-cap Transpose: status %q err %q, want an error naming the %d-byte cap", resp.Status, resp.Err, maxBytes)
	}
	if resp := srv.Submit(&Request{Tenant: "t1", Program: "VecAdd", Nodes: 2}); resp.Status != StatusOK {
		t.Fatalf("VecAdd after the over-cap job: status %q err %q", resp.Status, resp.Err)
	}
}
