package serve

import (
	"testing"
	"time"

	"cucc/internal/recovery"
	"cucc/internal/transport"
)

// The serving-layer chaos tests run cuccd with every job's cluster built
// over transport.NewFaulty.  The invariants mirror the cluster-level chaos
// suite, lifted to the service boundary:
//
//   - benign faults (delay, duplicate) are fully absorbed: every job
//     completes StatusOK with buffer checksums bitwise identical to a
//     fault-free server's, and the server's failure counters stay zero;
//   - lossy faults (payload corruption caught by the frame checksum)
//     surface as clean per-job errors whose count matches the server's
//     error/timeout counters — never a hang, never a corrupted result.

// chaosCRCs runs the deterministic VecAdd source job n times against a
// server with the given fault config and returns the per-job responses.
// Recovery is explicitly disabled: these tests pin the pre-recovery
// contract (faults either absorbed or surfaced as clean errors); the
// recovery-enabled serving path has its own test below.
func chaosResponses(t *testing.T, fc *transport.FaultConfig, n int) []*Response {
	t.Helper()
	srv := NewServer(Config{
		Executors:   2,
		Nodes:       2,
		Workers:     1,
		RecvTimeout: 5 * time.Second,
		Fault:       fc,
		Recovery:    &recovery.Policy{},
	})
	defer srv.Drain()
	out := make([]*Response, n)
	for i := range out {
		out[i] = srv.Submit(vecAddSourceReq("chaos"))
	}

	agg := srv.Registry().Snapshot()
	var okCount, errCount int64
	for _, resp := range out {
		switch resp.Status {
		case StatusOK:
			okCount++
		case StatusError:
			errCount++
		}
	}
	if got := agg.Counters[MetricJobsCompleted]; got != okCount {
		t.Errorf("completed counter = %d, want %d (observed ok responses)", got, okCount)
	}
	if got := agg.Counters[MetricJobsFailed]; got != errCount {
		t.Errorf("failed counter = %d, want %d (observed error responses)", got, errCount)
	}
	return out
}

// TestChaosBenignFaults checks that delay+duplicate injection under the
// serving layer is invisible in results: jobs complete, checksums match a
// fault-free server bitwise, and the failure counters stay zero — while
// the injected-fault totals prove the schedule actually fired.
func TestChaosBenignFaults(t *testing.T) {
	const jobs = 4
	clean := chaosResponses(t, nil, 1)
	benign := &transport.FaultConfig{
		Seed:      1,
		Delay:     0.3,
		Duplicate: 0.3,
		MaxDelay:  200 * time.Microsecond,
	}
	faulty := chaosResponses(t, benign, jobs)

	var injected int64
	for i, resp := range faulty {
		if resp.Status != StatusOK {
			t.Fatalf("job %d under benign faults: status %q err %q", i, resp.Status, resp.Err)
		}
		injected += resp.FaultsInjected
		for k := range resp.BufCRCs {
			if resp.BufCRCs[k] != clean[0].BufCRCs[k] {
				t.Errorf("job %d buffer %d CRC %08x differs from fault-free %08x",
					i, k, resp.BufCRCs[k], clean[0].BufCRCs[k])
			}
		}
	}
	if injected == 0 {
		t.Error("fault schedule injected nothing; the test proved nothing")
	}
}

// TestChaosLossyFaults drives the server with unrecoverable corruption
// faults: jobs must resolve cleanly (ok or error, never a hang) and the
// server's counters must account for every outcome exactly.
func TestChaosLossyFaults(t *testing.T) {
	// Corruption is detected on receipt (checksum mismatch -> ErrCorrupt),
	// so failures surface fast instead of waiting out receive deadlines.
	// Every job's cluster replays the same seeded streams, and VecAdd's
	// Allgather on 2 nodes is one message each way, so the seed alone
	// decides the outcome: seed 2 must corrupt one of those two messages.
	lossy := &transport.FaultConfig{
		Seed:    2,
		Corrupt: 0.3,
	}
	responses := chaosResponses(t, lossy, 4)
	var errCount int
	for i, resp := range responses {
		switch resp.Status {
		case StatusOK:
			// A lucky schedule may pass; correctness already checked by
			// cross-node verify inside the job.
		case StatusError:
			errCount++
		default:
			t.Errorf("job %d: unexpected status %q", i, resp.Status)
		}
	}
	if errCount == 0 {
		t.Error("lossy schedule produced no failures; raise Corrupt to exercise the error path")
	}
}

// TestChaosRankLossRecovered drives the recovery-enabled serving path (the
// default policy) with a deterministic rank kill inside every job's
// cluster: jobs must complete StatusOK with checksums bitwise identical to
// a fault-free server's, and the per-job counters must show the restore
// actually happened rather than a lucky fault-free schedule.
func TestChaosRankLossRecovered(t *testing.T) {
	runWith := func(fc *transport.FaultConfig) *Response {
		srv := NewServer(Config{
			Executors:   1,
			Workers:     1,
			RecvTimeout: 5 * time.Second,
			Fault:       fc,
		})
		defer srv.Drain()
		// A 16-block grid so the partition distributes blocks (the 4-block
		// quickstart shape degenerates to callbacks-only on 4 nodes, which
		// never touches the transport and so never reaches the kill).
		req := &Request{
			Tenant: "recover",
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
		return srv.Submit(req)
	}
	clean := runWith(nil)
	if clean.Status != StatusOK {
		t.Fatalf("fault-free job: status %q err %q", clean.Status, clean.Err)
	}
	got := runWith(&transport.FaultConfig{Seed: 1, KillRank: 1, KillAtOp: 2})
	if got.Status != StatusOK {
		t.Fatalf("rank loss must be recovered by the serving layer, got %q err %q", got.Status, got.Err)
	}
	if n := got.Counters[recovery.MetricRestores]; n < 1 {
		t.Fatalf("%s = %d, want >= 1 (recovery path not exercised)", recovery.MetricRestores, n)
	}
	if n := got.Counters[recovery.MetricRejoins]; n < 1 {
		t.Errorf("%s = %d, want >= 1", recovery.MetricRejoins, n)
	}
	if len(got.BufCRCs) != len(clean.BufCRCs) {
		t.Fatalf("CRC count %d, want %d", len(got.BufCRCs), len(clean.BufCRCs))
	}
	for i := range clean.BufCRCs {
		if got.BufCRCs[i] != clean.BufCRCs[i] {
			t.Errorf("buffer %d CRC %08x differs from fault-free %08x", i, got.BufCRCs[i], clean.BufCRCs[i])
		}
	}
}
