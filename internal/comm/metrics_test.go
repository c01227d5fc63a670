package comm

import (
	"sync"
	"testing"
	"time"

	"cucc/internal/metrics"
	"cucc/internal/transport"
)

// opCase is one collective invocation shared by the failure and
// cross-check tables below.
type opCase struct {
	name string
	op   *Op
	run  func(c transport.Conn, n, chunk int) (Stats, error)
}

func opCollectiveCases() []opCase {
	return []opCase{
		{"Barrier", opBarrier, func(c transport.Conn, n, chunk int) (Stats, error) {
			return Barrier(c)
		}},
		{"AllgatherRing", opRing, func(c transport.Conn, n, chunk int) (Stats, error) {
			buf := make([]byte, n*chunk)
			copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
			return AllgatherRing(c, buf, chunk)
		}},
	}
}

// TestSendFailureSymmetricAccounting: when the transport rejects every
// send, no collective may count phantom traffic — summed over the ranks the
// Stats must stay symmetric (Msgs==Recvs, BytesSent==BytesRecvd; here all
// zero, since nothing was delivered).
func TestSendFailureSymmetricAccounting(t *testing.T) {
	const n, chunk = 4, 32
	for _, tc := range opCollectiveCases() {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewFaulty(transport.NewInproc(n),
				transport.FaultConfig{Seed: 11, SendFail: 1.0, RetryBackoff: time.Microsecond})
			defer net.Close()
			stats := make([]Stats, n)
			failures := 0
			var mu sync.Mutex
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := net.Conn(r)
					// Ranks whose peer's send failed would otherwise block
					// forever; a deadline turns the hang into ErrTimeout.
					c.SetRecvTimeout(200 * time.Millisecond)
					st, err := tc.run(c, n, chunk)
					mu.Lock()
					stats[r] = st
					if err != nil {
						failures++
					}
					mu.Unlock()
				}(r)
			}
			wg.Wait()
			if failures == 0 {
				t.Fatal("no rank failed despite SendFail=1.0")
			}
			var total Stats
			for _, st := range stats {
				total.Add(st)
			}
			if total.Msgs != total.Recvs {
				t.Errorf("%d msgs counted as sent but %d received", total.Msgs, total.Recvs)
			}
			if total.BytesSent != total.BytesRecvd {
				t.Errorf("%d bytes counted as sent but %d received", total.BytesSent, total.BytesRecvd)
			}
			if total.Msgs != 0 {
				t.Errorf("counted %d msgs although every send failed", total.Msgs)
			}
		})
	}
}

// TestRegistryCrossCheck: over a metered transport, the per-collective
// registry counters must equal the summed per-rank Stats, and the
// transport-level counters (an independent ground truth recorded below the
// comm layer) must agree with both.
func TestRegistryCrossCheck(t *testing.T) {
	const n, chunk = 5, 32
	for _, tc := range opCollectiveCases() {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			net := transport.NewMetered(transport.NewInproc(n), reg)
			defer net.Close()
			stats := make([]Stats, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					stats[r], errs[r] = tc.run(net.Conn(r), n, chunk)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			var total Stats
			for _, st := range stats {
				total.Add(st)
			}
			s := reg.Snapshot()
			if got := s.Counters[tc.op.calls]; got != n {
				t.Errorf("%s = %d, want %d", tc.op.calls, got, n)
			}
			check := func(name string, want int64) {
				if got := s.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d (summed Stats)", name, got, want)
				}
			}
			check(tc.op.msgs, total.Msgs)
			check(tc.op.bytesSent, total.BytesSent)
			check(tc.op.recvs, total.Recvs)
			check(tc.op.bytesRecvd, total.BytesRecvd)
			// Transport ground truth: only this collective ran, so its
			// traffic is the network's entire traffic.
			check(transport.MetricSendMsgs, total.Msgs)
			check(transport.MetricSendBytes, total.BytesSent)
			check(transport.MetricRecvMsgs, total.Recvs)
			check(transport.MetricRecvBytes, total.BytesRecvd)
			if s.Counters[tc.op.errors] != 0 {
				t.Errorf("%s = %d, want 0", tc.op.errors, s.Counters[tc.op.errors])
			}
		})
	}
}

// BenchmarkAllgatherRing exercises the ring across n rank goroutines,
// reporting allocations: per call a rank allocates the copy of its own chunk
// and forwards what it receives, so B/op stays near n chunks in all (the
// bound TestRingAllgatherAllocatesOneChunk asserts).
func BenchmarkAllgatherRing(b *testing.B) {
	const n, chunk = 8, 4096
	net := transport.NewInproc(n)
	defer net.Close()
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, n*chunk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if _, err := AllgatherRing(net.Conn(r), bufs[r], chunk); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}
