package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cucc/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	// The reported tail is the highest step with >= 10 samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0.50}, {19, 0.50}, {20, 0.50}, {99, 0.50},
		{100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	w := workloadByName("serve-small")
	draw := func(seed int64) []arrival {
		return drawSchedule(rand.New(rand.NewSource(seed)), len(w.mix), w.tenants, 0, w.openRate, 2*time.Second)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds drew different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same schedule")
	}
	if len(a) < 600 || len(a) > 1000 {
		t.Errorf("%d arrivals in 2 s at %g/s", len(a), w.openRate)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}

	// The class cycle keeps the mix's exact shares and is the same cycle
	// for equal seeds; closed-loop picks carry no due time.
	ir := workloadByName("source-ir")
	picks := func(seed int64) []arrival {
		return drawSchedule(rand.New(rand.NewSource(seed)), len(ir.mix), ir.tenants, 100, 0, 0)
	}
	p, q := picks(3), picks(3)
	if !reflect.DeepEqual(p, q) {
		t.Error("equal seeds drew different class cycles")
	}
	differs := false
	for seed := int64(4); seed < 8; seed++ {
		differs = differs || !reflect.DeepEqual(p, picks(seed))
	}
	if !differs {
		t.Error("four other seeds all drew the same class cycle")
	}
	count := map[string]int{}
	for _, a := range p {
		count[ir.mix[a.class]]++
		if a.due != 0 {
			t.Fatal("closed-loop pick has a due time")
		}
	}
	want := map[string]int{"ir-Binomial": 30, "ir-FIR": 30, "ir-Conv2D": 20, "ir-MatMul": 10, "ir-fresh": 10}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("class shares over 100 picks = %v, want %v", count, want)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond) }
	tr := &tracer{t0: at(0)}
	root := tr.add(0, "job", at(0), at(100))
	launch := tr.add(root, "launch", at(10), at(70))
	tr.add(launch, "phase1", at(10), at(30))
	tr.add(launch, "phase3", at(50), at(70))
	tr.add(root, "check", at(60), at(90))   // overlaps launch: counted once
	tr.add(root, "encode", at(95), at(120)) // runs past the parent: clipped
	other := tr.add(0, "job", at(200), at(210))

	self := selfTimes(tr.spans)
	for id, want := range map[int]float64{root: 100 - 60 - 20 - 5, launch: 60 - 20 - 20, other: 10} {
		if got := self[id-1]; got != want {
			t.Errorf("self time of span %d = %g us, want %g", id, got, want)
		}
	}
	if tr.spans[launch-1].Job != root || tr.spans[launch+1-1].Job != root {
		t.Error("spans of one job do not share its id")
	}
	if tr.spans[other-1].Job == root {
		t.Error("two jobs share an id")
	}

	// A nil tracer records nothing and costs nothing to call.
	var off *tracer
	off.end(off.begin(0, "x"))
}

func TestFailureAccounting(t *testing.T) {
	ok := func(lat time.Duration) op { return op{answered: true, ok: true, status: serve.StatusOK, done: lat} }
	ops := []op{
		ok(5 * time.Millisecond),
		ok(30 * time.Millisecond), // verified, but over the limit
		{answered: true, status: serve.StatusRejected, done: time.Millisecond},
		{answered: true, status: serve.StatusError, done: time.Millisecond},
		{answered: true, status: "mismatch", done: time.Millisecond},
		{}, // never answered
	}
	s := summarize(ops, true, 20)
	if s.attempted != 6 || s.failed != 4 {
		t.Errorf("attempted %d failed %d, want 6 and 4", s.attempted, s.failed)
	}
	// Only verified jobs have a latency; only those within the limit meet
	// it, so rejected, failed and unanswered jobs all miss it.
	if len(s.lat) != 2 || s.withinLimit != 1 {
		t.Errorf("%d latencies, %d within limit, want 2 and 1", len(s.lat), s.withinLimit)
	}
	want := map[string]int{serve.StatusRejected: 1, serve.StatusError: 1, "mismatch": 1, "unanswered": 1}
	if !reflect.DeepEqual(s.byStatus, want) {
		t.Errorf("byStatus = %v, want %v", s.byStatus, want)
	}
}

func TestOutputVerification(t *testing.T) {
	suite := &class{name: "small-VecAdd"}
	source := &class{name: "ir-FIR", source: true, want: []uint32{1, 2, 3}}
	for _, tc := range []struct {
		cl   *class
		resp serve.Response
		want bool
	}{
		{suite, serve.Response{Status: serve.StatusOK}, true},
		{suite, serve.Response{Status: serve.StatusError}, false},
		{source, serve.Response{Status: serve.StatusOK, BufCRCs: []uint32{1, 2, 3}}, true},
		{source, serve.Response{Status: serve.StatusOK, BufCRCs: []uint32{1, 2, 4}}, false},
		{source, serve.Response{Status: serve.StatusOK}, false},
		{source, serve.Response{Status: serve.StatusRejected, BufCRCs: []uint32{1, 2, 3}}, false},
	} {
		if got := tc.cl.verified(&tc.resp); got != tc.want {
			t.Errorf("%s verified(%+v) = %v, want %v", tc.cl.name, tc.resp, got, tc.want)
		}
	}
}

func TestFreshSourcesNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 2; seed++ {
		for i := 0; i < 1000; i++ {
			src := freshSource("__global__ void k() {}\n", seed)
			if seen[src] {
				t.Fatalf("fresh source repeated after %d variants", len(seen))
			}
			seen[src] = true
		}
	}
}

func TestSourceClassesMatchTheirOracle(t *testing.T) {
	// Every source-mode class builds a request the suite program's own
	// kernel accepts, and the oracle runs it.
	for _, name := range classNames {
		cl, err := newClass(name)
		if err != nil {
			t.Fatal(err)
		}
		if !cl.source {
			continue
		}
		if err := cl.oracle(); err != nil {
			t.Fatal(err)
		}
		if len(cl.want) == 0 {
			t.Errorf("%s: oracle produced no CRCs", name)
		}
		req := cl.request("a", 1, 1)
		if req.Engine != "" || req.Collective != "" || req.Workers != 0 || req.DeadlineMs != 0 {
			t.Errorf("%s: request sets what a tenant who sets nothing leaves unset: %+v", name, req)
		}
	}
}

func TestAgreementDirection(t *testing.T) {
	lower := specMetric{Better: "lower"}
	higher := specMetric{Better: "higher"}
	if got := lower.worseBy(10, 11); got < 0.0999 || got > 0.1001 {
		t.Errorf("lower-is-better 10 -> 11 is worse by %g, want 0.1", got)
	}
	if got := higher.worseBy(10, 11); got > -0.0999 || got < -0.1001 {
		t.Errorf("higher-is-better 10 -> 11 is worse by %g, want -0.1", got)
	}
}
