package main

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cucc/internal/serve"
)

// conn is a minimal framed client: serve.WriteFrame / serve.ReadFrame over
// one TCP connection, counting the bytes of each frame.  One goroutine may
// send while another receives.
type conn struct {
	c   net.Conn
	bw  *bufio.Writer
	br  *bufio.Reader
	out countWriter
	in  countReader
}

type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{c: nc, bw: bufio.NewWriter(nc), br: bufio.NewReader(nc)}
	c.out.w, c.in.r = c.bw, c.br
	return c, nil
}

// send writes one request frame and returns its size on the wire.
func (c *conn) send(req *serve.Request) (int, error) {
	c.out.n = 0
	if err := serve.WriteFrame(&c.out, req); err != nil {
		return 0, err
	}
	return c.out.n, c.bw.Flush()
}

// recv reads one response frame and returns its size on the wire.
func (c *conn) recv(resp *serve.Response) (int, error) {
	c.in.n = 0
	err := serve.ReadFrame(&c.in, resp)
	return c.in.n, err
}

// op is the client-side record of one job.  Times are offsets from the
// phase start.  An op that was never answered keeps answered == false; it
// and every op with ok == false count as failed and as missing any latency
// limit.
type op struct {
	arrival
	sent, done time.Duration
	answered   bool
	ok         bool // answered, StatusOK, and output verified
	status     string
	jobID      uint64
	queueMs    float64
	runMs      float64
	reqBytes   int
	respBytes  int
}

// latency is what the client waited: from due time in an open loop (so a
// late generator or a stall is charged to the jobs behind it), from send
// time in a closed loop.
func (o *op) latency(open bool) time.Duration {
	if open {
		return o.done - o.due
	}
	return o.done - o.sent
}

// tally accumulates what the responses of verified jobs report beyond
// per-op fields: the per-job counter maps, trace sizes and simulated totals.
// Each receiving goroutine owns one; they are merged after the phase.
type tally struct {
	counters     map[string]int64
	counterRows  int64 // counter names per response, summed
	traceEvents  int64
	traceDropped int64
	simTotalSec  float64
	verified     int
	// sample keeps one request/response pair per class for the frame
	// encode/decode probe.
	sample map[string]framePair
}

type framePair struct {
	req  serve.Request
	resp serve.Response
}

func newTally() *tally {
	return &tally{counters: map[string]int64{}, sample: map[string]framePair{}}
}

func (t *tally) add(o *tally) {
	for k, v := range o.counters {
		t.counters[k] += v
	}
	t.counterRows += o.counterRows
	t.traceEvents += o.traceEvents
	t.traceDropped += o.traceDropped
	t.simTotalSec += o.simTotalSec
	t.verified += o.verified
	for k, v := range o.sample {
		t.sample[k] = v
	}
}

// phaseRun is what one load phase needs: connections, the class and tenant
// tables the arrivals index, and the seed for fresh-source variants.  With
// tr set, every answered request is recorded as a span as it completes.
type phaseRun struct {
	conns   []*conn
	classes []*class // aligned with the workload's mix
	tenants []tenant
	seed    int64
	tr      *tracer
}

func (p *phaseRun) request(a arrival) *serve.Request {
	t := p.tenants[a.tenant]
	return p.classes[a.class].request(t.name, t.weight, p.seed)
}

// settle fills an op from its response and folds the response into t.
// start is the phase's time origin.
func (p *phaseRun) settle(o *op, start time.Time, req *serve.Request, resp *serve.Response, respBytes int, t *tally) {
	cl := p.classes[o.class]
	o.answered = true
	o.ok = cl.verified(resp)
	o.status = resp.Status
	if resp.Status == serve.StatusOK && !o.ok {
		o.status = "mismatch"
	}
	o.jobID = resp.JobID
	o.queueMs, o.runMs = resp.QueueMs, resp.RunMs
	o.respBytes = respBytes
	if !o.ok {
		return
	}
	for k, v := range resp.Counters {
		t.counters[k] += v
	}
	t.counterRows += int64(len(resp.Counters))
	t.traceEvents += int64(resp.TraceEvents)
	t.traceDropped += resp.TraceDropped
	if resp.Stats != nil {
		t.simTotalSec += resp.Stats.TotalSec
	}
	t.verified++
	if _, seen := t.sample[cl.name]; !seen {
		t.sample[cl.name] = framePair{req: *req, resp: *resp}
	}
	if p.tr != nil {
		p.requestSpans(o, start, cl)
	}
}

// requestSpans records one answered request: the client's wait, and under
// it the queue and run times the response reports and the remainder, the
// wire (frames, sockets, goroutine hand-offs).  The response gives
// durations, not timestamps, so the children are laid end to end from the
// send time.
func (p *phaseRun) requestSpans(o *op, start time.Time, cl *class) {
	sent, done := start.Add(o.sent), start.Add(o.done)
	queue := time.Duration(o.queueMs * float64(time.Millisecond))
	run := time.Duration(o.runMs * float64(time.Millisecond))
	wire := max(o.done-o.sent-queue-run, 0)
	root := p.tr.add(0, "request:"+cl.name, sent, done)
	p.tr.add(root, "serve.wire", sent, sent.Add(wire))
	p.tr.add(root, "serve.queue", sent.Add(wire), sent.Add(wire+queue))
	p.tr.add(root, "serve.run", sent.Add(wire+queue), sent.Add(wire+queue+run))
}

// drainGrace is how long an open-loop phase waits, after its last send,
// for responses still outstanding before it counts them as never answered.
const drainGrace = 10 * time.Second

// genStats reports how well the open-loop generator kept its schedule.
type genStats struct {
	lags        []time.Duration // send time minus due time, per arrival
	inflightMax int
}

// runOpen sends the pre-drawn schedule at its due times, whatever the
// server does: one pacing goroutine (the caller's) writes arrival i to
// connection i mod len(conns), sleeping to absolute due times, and one
// goroutine per connection reads responses and matches them by ID.
func (p *phaseRun) runOpen(sched []arrival) ([]op, *tally, genStats) {
	ops := make([]op, len(sched))
	reqs := make([]*serve.Request, len(sched))
	for i, a := range sched {
		ops[i].arrival = a
		reqs[i] = p.request(a)
		reqs[i].ID = uint64(i + 1)
	}

	var inflight atomic.Int64
	var wg sync.WaitGroup
	tallies := make([]*tally, len(p.conns))
	start := time.Now()
	for k, c := range p.conns {
		tallies[k] = newTally()
		expect := (len(sched) - k + len(p.conns) - 1) / len(p.conns)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < expect; n++ {
				var resp serve.Response
				nbytes, err := c.recv(&resp)
				if err != nil {
					return // read deadline hit or connection lost: the rest stay unanswered
				}
				done := time.Since(start)
				if resp.ID < 1 || resp.ID > uint64(len(ops)) {
					continue
				}
				o := &ops[resp.ID-1]
				o.done = done
				p.settle(o, start, reqs[resp.ID-1], &resp, nbytes, tallies[k])
				inflight.Add(-1)
			}
		}()
	}

	gs := genStats{lags: make([]time.Duration, 0, len(sched))}
	for i := range sched {
		o := &ops[i]
		// An idle Go runtime waits for timers in epoll_wait, whose timeout is
		// whole milliseconds, so this wakes up to 1 ms late (gen.lag_ms_p99);
		// the lag is charged to the job, whose latency runs from due time.
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o.sent = time.Since(start)
		gs.lags = append(gs.lags, o.sent-o.due)
		if n := int(inflight.Add(1)); n > gs.inflightMax {
			gs.inflightMax = n
		}
		// A failed send leaves the op unanswered, which counts it failed.
		o.reqBytes, _ = p.conns[i%len(p.conns)].send(reqs[i])
	}

	deadline := time.Now().Add(drainGrace)
	for _, c := range p.conns {
		c.c.SetReadDeadline(deadline)
	}
	wg.Wait()
	for _, c := range p.conns {
		c.c.SetReadDeadline(time.Time{})
	}
	total := newTally()
	for _, t := range tallies {
		total.add(t)
	}
	return ops, total, gs
}

// runClosed drives one synchronous client per connection: each sends its
// next job only after the previous one was answered.  Jobs are taken in
// order from the shared pre-drawn picks, which repeat if the run outlasts
// them.  The phase ends after dur, or — with count > 0 — after exactly count
// jobs, however long they take.
func (p *phaseRun) runClosed(picks []arrival, dur time.Duration, count int) ([]op, *tally, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	perClient := make([][]op, len(p.conns))
	tallies := make([]*tally, len(p.conns))
	start := time.Now()
	for k, c := range p.conns {
		tallies[k] = newTally()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for count > 0 || time.Since(start) < dur {
				i := next.Add(1) - 1
				if count > 0 && int(i) >= count {
					return
				}
				o := op{arrival: picks[int(i)%len(picks)]}
				req := p.request(o.arrival)
				req.ID = uint64(i + 1)
				o.sent = time.Since(start)
				var err error
				if o.reqBytes, err = c.send(req); err == nil {
					var resp serve.Response
					var nbytes int
					if nbytes, err = c.recv(&resp); err == nil {
						o.done = time.Since(start)
						p.settle(&o, start, req, &resp, nbytes, tallies[k])
					}
				}
				perClient[k] = append(perClient[k], o)
				if err != nil {
					return // connection lost: this client stops, its op stays failed
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var ops []op
	total := newTally()
	for k := range p.conns {
		ops = append(ops, perClient[k]...)
		total.add(tallies[k])
	}
	return ops, total, wall
}
