package trace

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// go test ./internal/trace -run Golden -update regenerates the golden files.
var update = flag.Bool("update", false, "rewrite golden files")

func sample() *Recorder {
	r := New()
	r.Add(Event{StartSec: 0.002, DurSec: 0.001, Node: 1, Phase: PhasePartial, Kernel: "k"})
	r.Add(Event{StartSec: 0.000, DurSec: 0.002, Node: 0, Phase: PhaseLaunch, Kernel: "k"})
	r.Add(Event{StartSec: 0.003, DurSec: 0.004, Node: -1, Phase: PhaseAllgather, Kernel: "k", Detail: "64 bytes"})
	return r
}

// spans decodes a Chrome export's span events in the order it wrote them.
func spans(t *testing.T, r *Recorder) []Event {
	t.Helper()
	raw, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var ces []chromeEvent
	if err := json.Unmarshal(raw, &ces); err != nil {
		t.Fatal(err)
	}
	var out []Event
	for _, ce := range ces {
		if ce.Ph == "X" {
			out = append(out, Event{StartSec: ce.TS / 1e6, DurSec: ce.Dur / 1e6, Node: ce.TID,
				Phase: ce.Name, Kernel: ce.Args.Kernel, Detail: ce.Args.Detail})
			if ce.TID == clusterTID {
				out[len(out)-1].Node = -1
			}
		}
	}
	return out
}

// TestEventsSorted: Events keeps arrival order, stamped by Seq, and the
// timeline export sorts by start time.
func TestEventsSorted(t *testing.T) {
	r := sample()
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d: Seq = %d, want arrival order", i, ev.Seq)
		}
	}
	exp := spans(t, r)
	for i := 1; i < len(exp); i++ {
		if exp[i].StartSec < exp[i-1].StartSec {
			t.Fatal("exported spans not sorted by start time")
		}
	}
}

// TestEventsTieBreakDeterministic: events sharing a start time export in
// (Node, Phase, Kernel, Detail) order, so insertion order — which follows
// goroutine scheduling during a run — never leaks into the export.
func TestEventsTieBreakDeterministic(t *testing.T) {
	evs := []Event{
		{StartSec: 1, Node: 2, Phase: PhasePartial, Kernel: "k"},
		{StartSec: 1, Node: 0, Phase: PhaseWorker, Kernel: "k", Detail: "worker 1/4: 2 blocks"},
		{StartSec: 1, Node: 0, Phase: PhaseWorker, Kernel: "k", Detail: "worker 0/4: 2 blocks"},
		{StartSec: 1, Node: 0, Phase: PhasePartial, Kernel: "k"},
		{StartSec: 0.5, Node: 9, Phase: PhaseLaunch, Kernel: "k"},
	}
	// Insert in two different orders; exports must be byte-identical.
	a, b := New(), New()
	for _, ev := range evs {
		a.Add(ev)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		b.Add(evs[i])
	}
	ja, err := a.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("export depends on insertion order:\n%s\nvs\n%s", ja, jb)
	}
	got := spans(t, a)
	want := []Event{evs[4], evs[3], evs[2], evs[1], evs[0]}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestChromeTraceFormat(t *testing.T) {
	raw, err := sample().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var spans, meta int
	for _, ev := range parsed {
		switch ev["ph"] {
		case "X":
			spans++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase type %v", ev["ph"])
		}
	}
	if spans != 3 {
		t.Fatalf("got %d span events, want 3", spans)
	}
	// One process_name plus one thread_name per lane (ranks 0, 1, cluster).
	if meta != 4 {
		t.Fatalf("got %d metadata events, want 4", meta)
	}
	// Cluster-wide events land on the dedicated lane.
	found := false
	for _, ev := range parsed {
		if ev["ph"] == "X" && ev["tid"] == float64(9999) {
			found = true
		}
	}
	if !found {
		t.Error("cluster-wide event lane missing")
	}
}

// TestChromeTraceMetadata: the export opens with process/thread naming
// metadata so Perfetto shows "rank N" / "cluster" lanes, in sorted tid
// order before any span.
func TestChromeTraceMetadata(t *testing.T) {
	raw, err := sample().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		TID  int    `json:"tid"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed[0].Ph != "M" || parsed[0].Name != "process_name" || parsed[0].Args.Name != "cucc cluster" {
		t.Errorf("first event is not the process_name metadata: %+v", parsed[0])
	}
	wantThreads := map[int]string{0: "rank 0", 1: "rank 1", 9999: "cluster"}
	seen := map[int]string{}
	sawSpan := false
	for _, ev := range parsed {
		switch ev.Ph {
		case "M":
			if sawSpan {
				t.Error("metadata event after a span event")
			}
			if ev.Name == "thread_name" {
				seen[ev.TID] = ev.Args.Name
			}
		case "X":
			sawSpan = true
		}
	}
	for tid, want := range wantThreads {
		if seen[tid] != want {
			t.Errorf("thread_name[%d] = %q, want %q", tid, seen[tid], want)
		}
	}
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestChromeTraceGolden pins the exact serialized bytes: the export format
// is an interchange contract (Perfetto, cuccprof) and must stay
// byte-deterministic.
func TestChromeTraceGolden(t *testing.T) {
	raw, err := sample().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "chrome_trace.golden", raw)
}

func TestSummaryGolden(t *testing.T) {
	golden(t, "summary.golden", []byte(sample().Summary()))
}

// TestParseChromeRoundTrip: ChromeTrace -> ParseChromeDropped reproduces the
// recorded events exactly (values chosen to be binary-exact in
// microseconds).
func TestParseChromeRoundTrip(t *testing.T) {
	r := New()
	in := []Event{
		{StartSec: 0, DurSec: 0.5, Node: 0, Phase: PhasePartial, Kernel: "k", Detail: "8 blocks"},
		{StartSec: 0.5, DurSec: 0.25, Node: -1, Phase: PhaseAllgather, Kernel: "k", Detail: "64 bytes/node, 6 msgs"},
		{StartSec: 0.75, DurSec: 0.125, Node: 1, Phase: PhaseCallback, Kernel: "k"},
	}
	for _, ev := range in {
		r.Add(ev)
	}
	raw, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	got, dropped, err := ParseChromeDropped(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("unbounded recorder exported %d dropped events", dropped)
	}
	if len(got) != len(in) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(in))
	}
	for i, ev := range in {
		if got[i] != ev {
			t.Errorf("event %d = %+v, want %+v", i, got[i], ev)
		}
	}
}

func TestParseChromeRejectsGarbage(t *testing.T) {
	if _, _, err := ParseChromeDropped([]byte("not json")); err == nil {
		t.Error("expected an error for non-JSON input")
	}
}

func TestSummary(t *testing.T) {
	s := sample().Summary()
	for _, want := range []string{"3 events", PhaseAllgather, PhasePartial} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "dropped") {
		t.Errorf("unbounded recorder reports drops:\n%s", s)
	}
}

// TestCappedRecorder: a capped recorder keeps the most recent n events and
// counts what it overwrote.
func TestCappedRecorder(t *testing.T) {
	r := NewCapped(4)
	for i := 0; i < 10; i++ {
		r.Add(Event{StartSec: float64(i), Node: 0, Phase: PhasePartial})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The most recent four are 6..9, in arrival order.
	for i, ev := range evs {
		if want := float64(6 + i); ev.StartSec != want || ev.Seq != uint64(6+i) {
			t.Errorf("event %d start = %g seq = %d, want %g", i, ev.StartSec, ev.Seq, want)
		}
	}
	if d := r.Dropped(); d != 6 {
		t.Errorf("dropped = %d, want 6", d)
	}
	if s := r.Summary(); !strings.Contains(s, "6 older events dropped") || !strings.Contains(s, "capacity 4") {
		t.Errorf("summary does not surface drops:\n%s", s)
	}
}

func TestCappedRecorderUnderCap(t *testing.T) {
	r := NewCapped(8)
	for i := 0; i < 5; i++ {
		r.Add(Event{StartSec: float64(i)})
	}
	if len(r.Events()) != 5 || r.Dropped() != 0 {
		t.Errorf("got %d events, %d dropped; want 5, 0", len(r.Events()), r.Dropped())
	}
	if NewCapped(0).cap != 0 {
		t.Error("NewCapped(0) should be unbounded")
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := New()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				r.Add(Event{StartSec: float64(i), Node: g, Phase: PhasePartial})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(r.Events()); got != 800 {
		t.Errorf("got %d events, want 800", got)
	}
}

func TestConcurrentAddCapped(t *testing.T) {
	r := NewCapped(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				r.Add(Event{StartSec: float64(i), Node: g})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(r.Events()); got != 64 {
		t.Errorf("retained %d events, want 64", got)
	}
	if d := r.Dropped(); d != 800-64 {
		t.Errorf("dropped = %d, want %d", d, 800-64)
	}
}
