package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cucc/internal/obs"
	"cucc/internal/prof"
	"cucc/internal/recovery"
	"cucc/internal/transport"
)

// eventChain asserts that evs contains types as an ordered subsequence and
// returns the matched events.
func eventChain(t *testing.T, evs []obs.Event, types ...string) []obs.Event {
	t.Helper()
	matched := make([]obs.Event, 0, len(types))
	i := 0
	for _, ev := range evs {
		if i < len(types) && ev.Phase == types[i] {
			matched = append(matched, ev)
			i++
		}
	}
	if i != len(types) {
		var got []string
		for _, ev := range evs {
			got = append(got, ev.Phase)
		}
		t.Fatalf("journal missing %q from the chain %v; recorded order: %v", types[i], types, got)
	}
	return matched
}

// TestChaosJournalChain kills rank 1 inside a recovery-enabled server's job
// and asserts the flight-recorder story end to end: the journal records the
// complete admission→kill→restore→rejoin event chain, the in-memory dump
// names the recovery, the on-disk dump parses back, and the post-mortem
// renderer names the killed rank, the restore, and the rejoin.
func TestChaosJournalChain(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{
		Executors:     1,
		Workers:       1,
		RecvTimeout:   5 * time.Second,
		Fault:         &transport.FaultConfig{Seed: 1, KillRank: 1, KillAtOp: 2},
		Journal:       obs.NewJournal(0),
		PostmortemDir: dir,
	})
	defer srv.Drain()

	// The 16-block grid over 4 nodes distributes blocks, so phase 3 touches
	// the transport and reaches the kill (the 4-block quickstart shape
	// degenerates to callbacks-only and never would).
	req := &Request{
		Tenant: "chaos-tenant",
		Source: vecAddSrc,
		Kernel: "vecadd",
		GridX:  16, BlockX: 64,
		Args: []ArgSpec{
			{Kind: "buf", Elem: "f32", Count: 1024},
			{Kind: "buf", Elem: "f32", Count: 1024, Ramp: true},
			{Kind: "buf", Elem: "f32", Count: 1024, Fill: 2},
			{Kind: "int", Int: 1024},
		},
		Nodes: 4,
	}
	resp := srv.Submit(req)
	if resp.Status != StatusOK {
		t.Fatalf("rank loss must be recovered: status %q err %q", resp.Status, resp.Err)
	}
	if resp.Counters[recovery.MetricRestores] < 1 {
		t.Fatal("recovery path not exercised; the chain below would be vacuous")
	}

	evs := srv.Journal().Events()
	chain := eventChain(t, evs,
		obs.EvAdmit, obs.EvDispatch, obs.EvCompile, obs.EvLaunchPhase,
		obs.EvRankLoss, obs.EvRestore, obs.EvRejoin, obs.EvComplete)
	loss := chain[4]
	if loss.Node != 1 {
		t.Errorf("rank-loss event names rank %d, want 1: %+v", loss.Node, loss)
	}
	if !strings.Contains(loss.Detail, "[1]") {
		t.Errorf("rank-loss detail does not list the killed node: %q", loss.Detail)
	}
	for i, ev := range chain {
		if ev.Tenant != "chaos-tenant" {
			t.Errorf("chain event %d not attributed to the tenant: %+v", i, ev)
		}
	}

	// The in-memory dump: a recovered (not failed) job.
	d := srv.LastDump()
	if d == nil {
		t.Fatal("no flight-recorder dump retained")
	}
	if d.Reason != obs.DumpReasonRecovery || d.Err != "" {
		t.Errorf("dump reason %q err %q, want recovery with no error", d.Reason, d.Err)
	}
	if d.Tenant != "chaos-tenant" || d.Job != resp.JobID {
		t.Errorf("dump names job %d/%s, want %d/chaos-tenant", d.Job, d.Tenant, resp.JobID)
	}
	if d.Metrics.Counters[recovery.MetricRestores] < 1 {
		t.Error("dump metrics missing the restore counter")
	}
	if len(d.Trace) == 0 {
		t.Error("dump carries no trace window")
	}

	// The on-disk dump parses back and renders as a timeline naming the
	// killed rank, the restore, and the rejoin — the cuccprof -postmortem
	// contract.
	path := filepath.Join(dir, fmt.Sprintf("postmortem-job%d.json", resp.JobID))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseDump(raw)
	if err != nil {
		t.Fatal(err)
	}
	table := prof.AnalyzePostmortem(parsed).Table()
	for _, want := range []string{
		"post-mortem", "chaos-tenant", "recovery",
		"rank-loss", "lost nodes [1]",
		"restore", "rejoin", "repaired nodes [1]",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("post-mortem table missing %q:\n%s", want, table)
		}
	}
	if srv.Registry().Snapshot().Counters[MetricDumps] != 1 {
		t.Errorf("dump counter = %d, want 1", srv.Registry().Snapshot().Counters[MetricDumps])
	}
}

// TestJournalDisabledZeroOverhead: with no journal configured the serving
// path records nothing and retains no dump state unless a postmortem dir
// forces the recorder on.
func TestJournalDisabledZeroOverhead(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 2, Workers: 1})
	defer srv.Drain()
	if resp := srv.Submit(&Request{Tenant: "t", Program: "VecAdd", Nodes: 2}); resp.Status != StatusOK {
		t.Fatalf("job failed: %q %q", resp.Status, resp.Err)
	}
	if srv.Journal() != nil {
		t.Error("server fabricated a journal")
	}
	if srv.Journal().Len() != 0 {
		t.Error("nil journal retained events")
	}
}
