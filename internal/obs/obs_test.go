package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cucc/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestJournalRingBound: a full ring overwrites the oldest events, counts
// them as dropped, and keeps the retained window in sequence order.
func TestJournalRingBound(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Add(Event{Phase: EvAdmit, Node: -1, Detail: fmt.Sprintf("e%d", i)})
	}
	if got := j.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := j.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	evs := j.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	tail := j.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 8 || tail[1].Seq != 9 {
		t.Errorf("Tail(2) = %+v, want seqs 8,9", tail)
	}
	if got := j.Tail(0); len(got) != 4 {
		t.Errorf("Tail(0) returned %d events, want all 4", len(got))
	}
	if got := j.Tail(100); len(got) != 4 {
		t.Errorf("Tail(100) returned %d events, want all 4", len(got))
	}
}

// TestNilJournalNoOps: a nil journal and a zero scope are valid disabled
// recorders — every method no-ops, and the hot-path Record costs zero
// allocations.
func TestNilJournalNoOps(t *testing.T) {
	var j *Journal
	j.Add(Event{Phase: EvAdmit})
	if j.Events() != nil || j.Tail(5) != nil || j.Len() != 0 || j.Dropped() != 0 {
		t.Error("nil journal retained state")
	}
	if raw, err := j.JSON(); err != nil || string(raw) != "[]" {
		t.Errorf("nil journal JSON = %q, %v; want empty array", raw, err)
	}
	var sc Scope
	if sc.On() {
		t.Error("zero Scope reports On")
	}
	sc.Record(EvAdmit, -1, "k", "detail")
	sc.RecordEvent(Event{Phase: EvFail})

	if n := testing.AllocsPerRun(100, func() {
		sc.Record(EvLaunchPhase, -1, "vecadd", "")
	}); n != 0 {
		t.Errorf("disabled Scope.Record allocates %v per call, want 0", n)
	}
}

// TestScopeStamping: a scope stamps its tenant and job over both Record and
// pre-built events.
func TestScopeStamping(t *testing.T) {
	j := NewJournal(8)
	sc := Scope{J: j, Tenant: "t1", Job: 7}
	if !sc.On() {
		t.Fatal("enabled scope reports off")
	}
	sc.Record(EvAdmit, 2, "vecadd", "queued")
	sc.RecordEvent(Event{Phase: EvRankLoss, Tenant: "ignored", Job: 999, Node: 1})
	evs := j.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Tenant != "t1" || ev.Job != 7 {
			t.Errorf("event %d not stamped with scope identity: %+v", i, ev)
		}
	}
	if evs[1].Node != 1 || evs[1].Phase != EvRankLoss {
		t.Errorf("RecordEvent lost event fields: %+v", evs[1])
	}
}

// journalFixture records one event of every type, the corpus the export
// and golden tests share.
func journalFixture() *Journal {
	j := NewJournal(0)
	sc := Scope{J: j, Tenant: "tenant-a", Job: 3}
	sc.Record(EvAdmit, -1, "VecAdd", "queued (depth 1)")
	sc.Record(EvReject, -1, "", "queue full: 32 queued")
	sc.Record(EvDispatch, -1, "VecAdd", "")
	sc.Record(EvCompile, -1, "vecadd", "compiled")
	sc.Record(EvLaunchPhase, -1, "vecadd", "start: blocks=16 nodes=4 distributed=true")
	sc.Record(EvAbort, -1, "", "transport closed")
	sc.Record(EvRankLoss, 1, "vecadd", "lost nodes [1], 3 survivors")
	sc.Record(EvCheckpoint, -1, "vecadd", "checkpoint @phase1: 4096 bytes over 3 regions")
	sc.Record(EvRestore, -1, "vecadd", "restore @phase1 (4096 bytes), replaying over 3 ranks")
	sc.Record(EvRegroup, -1, "", "adopted subgroup [0 2 3] over fresh transport")
	sc.Record(EvRejoin, -1, "vecadd", "repaired nodes [1] rejoined at full width")
	sc.Record(EvComplete, -1, "VecAdd", "ok: restores=1")
	sc.Record(EvFail, -1, "VecAdd", "deadline exceeded")
	j.Add(Event{Phase: EvDrain, Node: -1, Detail: "draining: 2 queued jobs rejected"})
	return j
}

// TestJournalExportDeterministic: identical record sequences export
// byte-identical JSON and text — the journal analogue of
// TestTraceDeterministicAcrossRuns.
func TestJournalExportDeterministic(t *testing.T) {
	first, err := journalFixture().JSON()
	if err != nil {
		t.Fatal(err)
	}
	firstText := journalFixture().Text()
	for i := 0; i < 3; i++ {
		again, err := journalFixture().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("run %d exported different JSON (%d vs %d bytes)", i+2, len(again), len(first))
		}
		if againText := journalFixture().Text(); againText != firstText {
			t.Fatalf("run %d exported different text", i+2)
		}
	}
}

// TestParseEventsRoundTrip: ExportJSON and ParseEvents invert each other.
func TestParseEventsRoundTrip(t *testing.T) {
	want := journalFixture().Events()
	raw, err := trace.ExportJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ParseEvents(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, err := trace.ParseEvents([]byte("not json")); err == nil {
		t.Error("ParseEvents accepted garbage")
	}
}

// TestJournalSchemaGolden pins the serialized event schema: the JSON field
// names and shapes the /events page and flight-recorder dumps publish.
// Changing the Event struct changes the wire format — regenerate with
// `go test ./internal/obs -run Golden -update` and bump consumers
// deliberately.
func TestJournalSchemaGolden(t *testing.T) {
	raw, err := journalFixture().JSON()
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	golden := filepath.Join("testdata", "journal_schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("event schema drifted from %s (regenerate with -update if intended)\n got:\n%s\nwant:\n%s",
			golden, raw, want)
	}
}

// TestJournalConcurrent hammers one journal from many goroutines under the
// race detector and checks every record landed or displaced exactly one
// older event.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	const workers, each = 8, 100
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			sc := Scope{J: j, Tenant: fmt.Sprintf("t%d", w), Job: uint64(w)}
			for i := 0; i < each; i++ {
				sc.Record(EvAdmit, -1, "", "")
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := j.Len() + int(j.Dropped()); got != workers*each {
		t.Errorf("retained+dropped = %d, want %d", got, workers*each)
	}
	evs := j.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained window not contiguous at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
