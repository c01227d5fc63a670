package comm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cucc/internal/transport"
)

// runAll runs fn per rank over an in-process network.
func runAll(t *testing.T, n int, fn func(c transport.Conn) error) {
	t.Helper()
	net := transport.NewInproc(n)
	defer net.Close()
	if err := runOn(net, fn); err != nil {
		t.Fatal(err)
	}
}

// runOn runs fn per rank over net and returns the first error.
func runOn(net transport.Network, fn func(c transport.Conn) error) error {
	n := net.Size()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(net.Conn(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func chunkFor(rank, chunk int) []byte {
	out := make([]byte, chunk)
	for i := range out {
		out[i] = byte(rank*17 + i)
	}
	return out
}

func checkGathered(buf []byte, n, chunk int) error {
	for r := 0; r < n; r++ {
		want := chunkFor(r, chunk)
		got := buf[r*chunk : (r+1)*chunk]
		if !bytes.Equal(got, want) {
			return fmt.Errorf("chunk %d corrupted: got %v, want %v", r, got[:4], want[:4])
		}
	}
	return nil
}

func TestAllgatherRingSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const chunk = 64
			runAll(t, n, func(c transport.Conn) error {
				buf := make([]byte, n*chunk)
				copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
				st, err := AllgatherRing(c, buf, chunk)
				if err != nil {
					return err
				}
				if n > 1 && st.Msgs != int64(n-1) {
					return fmt.Errorf("sent %d msgs, want %d", st.Msgs, n-1)
				}
				return checkGathered(buf, n, chunk)
			})
		})
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 13} {
		runAll(t, n, func(c transport.Conn) error {
			for i := 0; i < 3; i++ {
				if _, err := Barrier(c); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func TestAllgatherRingBadBuffer(t *testing.T) {
	runAll(t, 2, func(c transport.Conn) error {
		buf := make([]byte, 10) // not 2*chunk
		if _, err := AllgatherRing(c, buf, 8); err == nil {
			return fmt.Errorf("mismatched buffer accepted")
		}
		return nil
	})
}

func TestAllgatherOverTCP(t *testing.T) {
	// The same collective must work over real sockets.
	const n, chunk = 4, 128
	net, err := transport.NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := net.Conn(r)
			buf := make([]byte, n*chunk)
			copy(buf[r*chunk:], chunkFor(r, chunk))
			if _, err := AllgatherRing(c, buf, chunk); err != nil {
				errs[r] = err
				return
			}
			errs[r] = checkGathered(buf, n, chunk)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.Add(Stats{Msgs: 2, BytesSent: 100, Recvs: 1, BytesRecvd: 40})
	s.Add(Stats{Msgs: 3, BytesSent: 50, Recvs: 4, BytesRecvd: 60})
	if s.Msgs != 5 || s.BytesSent != 150 {
		t.Errorf("send stats = %+v", s)
	}
	if s.Recvs != 5 || s.BytesRecvd != 100 {
		t.Errorf("recv stats = %+v", s)
	}
}

// checkSymmetric asserts the cluster-wide invariant of Stats: every message
// has one counted sender and one counted receiver.
func checkSymmetric(t *testing.T, name string, stats []Stats) {
	t.Helper()
	var total Stats
	for _, st := range stats {
		total.Add(st)
	}
	if total.Msgs != total.Recvs {
		t.Errorf("%s: %d msgs sent but %d received", name, total.Msgs, total.Recvs)
	}
	if total.BytesSent != total.BytesRecvd {
		t.Errorf("%s: %d bytes sent but %d received", name, total.BytesSent, total.BytesRecvd)
	}
	if total.Msgs == 0 {
		t.Errorf("%s: no traffic counted", name)
	}
}

func TestSymmetricAccounting(t *testing.T) {
	// Each collective, summed over all ranks, must count as many receives
	// (and received bytes) as sends.
	const n = 5 // non-power-of-two: the barrier's last round wraps
	const chunk = 32
	type tc struct {
		name string
		run  func(c transport.Conn) (Stats, error)
	}
	cases := []tc{
		{"Barrier", func(c transport.Conn) (Stats, error) {
			return Barrier(c)
		}},
		{"AllgatherRing", func(c transport.Conn) (Stats, error) {
			buf := make([]byte, n*chunk)
			copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
			return AllgatherRing(c, buf, chunk)
		}},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			stats := make([]Stats, n)
			runAll(t, n, func(c transport.Conn) error {
				st, err := tcase.run(c)
				stats[c.Rank()] = st
				return err
			})
			checkSymmetric(t, tcase.name, stats)
		})
	}
}

// TestRingAllgathersMatchReference: the ring forwards received slices
// instead of copying them out again, so every rank's buffer is compared
// bitwise against the plain concatenation of the ranks' chunks, over the
// in-process transport (where a forwarded slice is shared by every rank
// downstream), TCP, and a fault layer that delays and duplicates frames.
func TestRingAllgathersMatchReference(t *testing.T) {
	nets := []struct {
		name string
		mk   func(n int) (transport.Network, error)
	}{
		{"inproc", func(n int) (transport.Network, error) { return transport.NewInproc(n), nil }},
		{"tcp", func(n int) (transport.Network, error) { return transport.NewTCP(n) }},
		{"faulty", func(n int) (transport.Network, error) {
			return transport.NewFaulty(transport.NewInproc(n), transport.FaultConfig{
				Seed: 1, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond}), nil
		}},
	}
	const chunk = 96
	for _, nw := range nets {
		for _, n := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/n=%d", nw.name, n), func(t *testing.T) {
				want := make([]byte, n*chunk)
				for r := 0; r < n; r++ {
					copy(want[r*chunk:], chunkFor(r, chunk))
				}
				net, err := nw.mk(n)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				err = runOn(net, func(c transport.Conn) error {
					r := c.Rank()
					buf := make([]byte, n*chunk)
					copy(buf[r*chunk:], want[r*chunk:(r+1)*chunk])
					st, err := AllgatherRing(c, buf, chunk)
					if err != nil {
						return err
					}
					if !bytes.Equal(buf, want) {
						return fmt.Errorf("gathered buffer differs from the concatenation of the chunks")
					}
					// Every chunk but the right neighbour's leaves this rank once.
					if sent := int64((n - 1) * chunk); st.Msgs != int64(n-1) || st.BytesSent != sent {
						return fmt.Errorf("sent %d msgs / %d bytes, want %d / %d", st.Msgs, st.BytesSent, n-1, sent)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRingAllgatherAllocatesOneChunk: a rank allocates the copy of its own
// chunk and little else per call — not an (n-1)-chunk send arena.
func TestRingAllgatherAllocatesOneChunk(t *testing.T) {
	const n, chunk, calls = 8, 64 << 10, 10
	net := transport.NewInproc(n)
	defer net.Close()
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, n*chunk)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		err := runOn(net, func(c transport.Conn) error {
			_, err := AllgatherRing(c, bufs[c.Rank()], chunk)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRank := (after.TotalAlloc - before.TotalAlloc) / (calls * n); perRank > chunk+chunk/8 {
		t.Errorf("%d bytes allocated per rank per call, want one %d-byte chunk and a small constant", perRank, chunk)
	}
}
