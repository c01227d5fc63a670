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

func TestAllgatherRecDouble(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const chunk = 48
			runAll(t, n, func(c transport.Conn) error {
				buf := make([]byte, n*chunk)
				copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
				if _, err := AllgatherRecDouble(c, buf, chunk); err != nil {
					return err
				}
				return checkGathered(buf, n, chunk)
			})
		})
	}
}

func TestAllgatherRecDoubleFallback(t *testing.T) {
	// Non-power-of-two falls back to the ring.
	const n, chunk = 6, 32
	runAll(t, n, func(c transport.Conn) error {
		buf := make([]byte, n*chunk)
		copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
		if _, err := AllgatherRecDouble(c, buf, chunk); err != nil {
			return err
		}
		return checkGathered(buf, n, chunk)
	})
}

func TestAllgatherVRing(t *testing.T) {
	// Imbalanced chunks: rank r contributes (r+1)*8 bytes.
	const n = 5
	offs := make([]int, n+1)
	for r := 0; r < n; r++ {
		offs[r+1] = offs[r] + (r+1)*8
	}
	total := offs[n]
	runAll(t, n, func(c transport.Conn) error {
		buf := make([]byte, total)
		r := c.Rank()
		for i := offs[r]; i < offs[r+1]; i++ {
			buf[i] = byte(r + 100)
		}
		if _, err := AllgatherVRing(c, buf, offs); err != nil {
			return err
		}
		for rr := 0; rr < n; rr++ {
			for i := offs[rr]; i < offs[rr+1]; i++ {
				if buf[i] != byte(rr+100) {
					return fmt.Errorf("byte %d = %d, want %d", i, buf[i], rr+100)
				}
			}
		}
		return nil
	})
}

func TestAllgatherOutOfPlace(t *testing.T) {
	const n, chunk = 4, 40
	runAll(t, n, func(c transport.Conn) error {
		in := chunkFor(c.Rank(), chunk)
		out := make([]byte, n*chunk)
		if _, err := AllgatherOutOfPlace(c, in, out); err != nil {
			return err
		}
		return checkGathered(out, n, chunk)
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		for root := 0; root < n; root += max(1, n/3) {
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				payload := []byte("broadcast-payload")
				runAll(t, n, func(c transport.Conn) error {
					var data []byte
					if c.Rank() == root {
						data = payload
					}
					got, _, err := Bcast(c, root, data)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("got %q", got)
					}
					return nil
				})
			})
		}
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

func TestAllReduceMaxF64(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runAll(t, n, func(c transport.Conn) error {
				v := float64(c.Rank() * 10)
				got, _, err := AllReduceMaxF64(c, v)
				if err != nil {
					return err
				}
				want := float64((n - 1) * 10)
				if got != want {
					return fmt.Errorf("max = %g, want %g", got, want)
				}
				return nil
			})
		})
	}
}

func TestGatherF64(t *testing.T) {
	const n = 6
	runAll(t, n, func(c transport.Conn) error {
		vals, _, err := GatherF64(c, 2, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if vals != nil {
				return fmt.Errorf("non-root got values")
			}
			return nil
		}
		for r, v := range vals {
			if v != float64(r+1) {
				return fmt.Errorf("vals[%d] = %g", r, v)
			}
		}
		return nil
	})
}

func TestSendRecvP2P(t *testing.T) {
	runAll(t, 2, func(c transport.Conn) error {
		if c.Rank() == 0 {
			st, err := Send(c, 1, []byte("hello"))
			if err != nil {
				return err
			}
			if st.Msgs != 1 || st.BytesSent != 5 {
				return fmt.Errorf("stats = %+v", st)
			}
			return nil
		}
		got, err := Recv(c, 0)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
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
	// (and received bytes) as sends.  Scatter, GatherBytes, and Bcast
	// historically returned zero-valued Stats on the receiving ranks.
	const n = 5 // non-power-of-two exercises the fallback paths too
	const chunk = 32
	type tc struct {
		name string
		run  func(c transport.Conn) (Stats, error)
	}
	cases := []tc{
		{"Barrier", func(c transport.Conn) (Stats, error) {
			return Barrier(c)
		}},
		{"Bcast", func(c transport.Conn) (Stats, error) {
			var data []byte
			if c.Rank() == 0 {
				data = chunkFor(0, chunk)
			}
			_, st, err := Bcast(c, 0, data)
			return st, err
		}},
		{"AllgatherRing", func(c transport.Conn) (Stats, error) {
			buf := make([]byte, n*chunk)
			copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
			return AllgatherRing(c, buf, chunk)
		}},
		{"AllgatherVRing", func(c transport.Conn) (Stats, error) {
			offs := make([]int, n+1)
			for r := 0; r < n; r++ {
				offs[r+1] = offs[r] + (r+1)*8
			}
			buf := make([]byte, offs[n])
			return AllgatherVRing(c, buf, offs)
		}},
		{"AllgatherRecDouble", func(c transport.Conn) (Stats, error) {
			buf := make([]byte, n*chunk)
			copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
			return AllgatherRecDouble(c, buf, chunk)
		}},
		{"AllReduceMaxF64", func(c transport.Conn) (Stats, error) {
			_, st, err := AllReduceMaxF64(c, float64(c.Rank()))
			return st, err
		}},
		{"GatherF64", func(c transport.Conn) (Stats, error) {
			_, st, err := GatherF64(c, 1, float64(c.Rank()))
			return st, err
		}},
		{"Scatter", func(c transport.Conn) (Stats, error) {
			var data []byte
			if c.Rank() == 2 {
				data = make([]byte, n*chunk)
			}
			got, st, err := Scatter(c, 2, data)
			if err == nil && len(got) != chunk {
				err = fmt.Errorf("scatter chunk is %d bytes, want %d", len(got), chunk)
			}
			return st, err
		}},
		{"Alltoall", func(c transport.Conn) (Stats, error) {
			_, st, err := Alltoall(c, make([]byte, n*chunk))
			return st, err
		}},
		{"GatherBytes", func(c transport.Conn) (Stats, error) {
			got, st, err := GatherBytes(c, 0, chunkFor(c.Rank(), chunk))
			if err == nil && c.Rank() == 0 && len(got) != n*chunk {
				err = fmt.Errorf("gathered %d bytes, want %d", len(got), n*chunk)
			}
			return st, err
		}},
		{"ReduceScatterSumF32", func(c transport.Conn) (Stats, error) {
			_, st, err := ReduceScatterSumF32(c, make([]float32, n*8))
			return st, err
		}},
		{"AllReduceSumF32", func(c transport.Conn) (Stats, error) {
			_, st, err := AllReduceSumF32(c, make([]float32, n*8))
			return st, err
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

func TestScatterBcastReceiversCounted(t *testing.T) {
	// Regression: the receiving ranks of rooted collectives must report
	// their receive, not a zero Stats.
	const n, chunk = 4, 16
	runAll(t, n, func(c transport.Conn) error {
		var data []byte
		if c.Rank() == 0 {
			data = make([]byte, n*chunk)
		}
		_, st, err := Scatter(c, 0, data)
		if err != nil {
			return err
		}
		if c.Rank() != 0 && (st.Recvs != 1 || st.BytesRecvd != chunk) {
			return fmt.Errorf("scatter receiver stats = %+v", st)
		}
		payload := []byte("payload")
		if c.Rank() != 0 {
			payload = nil
		}
		_, st, err = Bcast(c, 0, payload)
		if err != nil {
			return err
		}
		if c.Rank() != 0 && st.Recvs != 1 {
			return fmt.Errorf("bcast receiver stats = %+v", st)
		}
		return nil
	})
}

func TestAllgatherRecDoubleBadBuffer(t *testing.T) {
	// The length check must run before the non-power-of-two fallback so
	// both algorithms reject malformed buffers identically.
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runAll(t, n, func(c transport.Conn) error {
				buf := make([]byte, 10) // not n*chunk
				if _, err := AllgatherRecDouble(c, buf, 8); err == nil {
					return fmt.Errorf("mismatched buffer accepted")
				}
				return nil
			})
		})
	}
}

// TestRingAllgathersMatchReference: both ring Allgathers forward received
// slices instead of copying them out again, so every rank's buffer is
// compared bitwise against the plain concatenation of the ranks' chunks —
// balanced and ragged (one rank contributing nothing), over the in-process
// transport (where a forwarded slice is shared by every rank downstream), TCP,
// and a fault layer that delays and duplicates frames.
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
	for _, nw := range nets {
		for _, n := range []int{2, 3, 5, 8} {
			for _, ragged := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/ragged=%v", nw.name, n, ragged), func(t *testing.T) {
					offs := make([]int, n+1)
					for r := 0; r < n; r++ {
						size := 96
						if ragged {
							size = (r * 37) % 101 // rank 0 contributes nothing
						}
						offs[r+1] = offs[r] + size
					}
					want := make([]byte, offs[n])
					for r := 0; r < n; r++ {
						copy(want[offs[r]:offs[r+1]], chunkFor(r, offs[r+1]-offs[r]))
					}
					net, err := nw.mk(n)
					if err != nil {
						t.Fatal(err)
					}
					defer net.Close()
					err = runOn(net, func(c transport.Conn) error {
						r := c.Rank()
						buf := make([]byte, offs[n])
						copy(buf[offs[r]:offs[r+1]], want[offs[r]:offs[r+1]])
						var st Stats
						var err error
						if ragged {
							st, err = AllgatherVRing(c, buf, offs)
						} else {
							st, err = AllgatherRing(c, buf, offs[1])
						}
						if err != nil {
							return err
						}
						if !bytes.Equal(buf, want) {
							return fmt.Errorf("gathered buffer differs from the concatenation of the chunks")
						}
						// Every chunk but the right neighbour's leaves this rank once.
						right := (r + 1) % n
						sent := int64(offs[n] - (offs[right+1] - offs[right]))
						if st.Msgs != int64(n-1) || st.BytesSent != sent {
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
}

// TestRingAllgatherAllocatesOneChunk: a rank allocates the copy of its own
// chunk and little else per call — not an (n-1)-chunk send arena.
func TestRingAllgatherAllocatesOneChunk(t *testing.T) {
	const n, chunk, calls = 8, 64 << 10, 10
	net := transport.NewInproc(n)
	defer net.Close()
	offs := make([]int, n+1)
	bufs := make([][]byte, n)
	for r := 0; r < n; r++ {
		offs[r+1] = offs[r] + chunk
		bufs[r] = make([]byte, n*chunk)
	}
	for _, vring := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			err := runOn(net, func(c transport.Conn) (err error) {
				if vring {
					_, err = AllgatherVRing(c, bufs[c.Rank()], offs)
				} else {
					_, err = AllgatherRing(c, bufs[c.Rank()], chunk)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRank := (after.TotalAlloc - before.TotalAlloc) / (calls * n)
		if perRank > chunk+chunk/8 {
			t.Errorf("vring=%v: %d bytes allocated per rank per call, want one %d-byte chunk and a small constant", vring, perRank, chunk)
		}
	}
}
