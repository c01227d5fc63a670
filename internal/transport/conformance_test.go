package transport

import (
	"bytes"
	"errors"
	"fmt"
	gonet "net"
	"sync"
	"testing"
	"time"

	"cucc/internal/metrics"
)

// The conformance suite runs one set of behavioural tests against every
// transport: inproc, TCP, and the fault-injecting decorator over both
// (with zero fault probabilities it is a pure envelope layer, and with
// delay+duplicate faults it must still satisfy every guarantee, since
// those faults are absorbed by the envelope).

type conformanceFactory struct {
	name string
	make func(t *testing.T, n int) Network
}

func conformanceFactories() []conformanceFactory {
	newTCP := func(t *testing.T, n int) Network {
		net, err := NewTCP(n)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	newInproc := func(t *testing.T, n int) Network { return NewInproc(n) }
	chaos := FaultConfig{Seed: 7, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond}
	return []conformanceFactory{
		{"inproc", newInproc},
		{"tcp", newTCP},
		{"faulty-inproc", func(t *testing.T, n int) Network { return NewFaulty(newInproc(t, n), FaultConfig{Seed: 1}) }},
		{"faulty-tcp", func(t *testing.T, n int) Network { return NewFaulty(newTCP(t, n), FaultConfig{Seed: 2}) }},
		{"faulty-delay-dup", func(t *testing.T, n int) Network { return NewFaulty(newInproc(t, n), chaos) }},
		{"metered-inproc", func(t *testing.T, n int) Network { return NewMetered(newInproc(t, n), metrics.New()) }},
		{"metered-nil-reg", func(t *testing.T, n int) Network { return NewMetered(newInproc(t, n), nil) }},
		{"metered-faulty", func(t *testing.T, n int) Network {
			return NewMetered(NewFaulty(newInproc(t, n), chaos), metrics.New())
		}},
	}
}

func forEachTransport(t *testing.T, n int, fn func(t *testing.T, net Network)) {
	for _, f := range conformanceFactories() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			net := f.make(t, n)
			defer net.Close()
			fn(t, net)
		})
	}
}

// ranksErr runs fn on every rank concurrently and returns the per-rank
// errors (unlike runRanks it does not fail the test, so error-path tests
// can assert on them).
func ranksErr(n int, conn func(int) Conn, fn func(c Conn) error) []error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(conn(r))
		}(r)
	}
	wg.Wait()
	return errs
}

func TestConformancePingPong(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, net Network) {
		testPingPong(t, net.Conn)
	})
}

// TestConformanceOrdering: messages from one sender under one tag arrive
// in send order, and interleaving a second tag does not disturb either
// stream.
func TestConformanceOrdering(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, net Network) {
		const msgs = 64
		runRanks(t, 2, net.Conn, func(c Conn) error {
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
						return err
					}
					if err := c.Send(1, 4, []byte{byte(msgs - i)}); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < msgs; i++ {
				a, err := c.Recv(0, 3)
				if err != nil {
					return err
				}
				b, err := c.Recv(0, 4)
				if err != nil {
					return err
				}
				if a[0] != byte(i) || b[0] != byte(msgs-i) {
					return fmt.Errorf("message %d out of order: tag3=%d tag4=%d", i, a[0], b[0])
				}
			}
			return nil
		})
	})
}

func TestConformanceTagSelectivity(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, net Network) {
		testTagSelectivity(t, net.Conn)
	})
}

func TestConformanceAllToAll(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, net Network) {
		testAllToAll(t, 4, net.Conn)
	})
}

// TestConformanceClosedEndpoint: sends to and receives on a closed
// endpoint must return errors — a message into the void may not silently
// succeed.
func TestConformanceClosedEndpoint(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, net Network) {
		c := net.Conn(0)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(0, 1, []byte("self")); err == nil {
			t.Error("self-send on closed endpoint silently succeeded")
		}
		if _, err := c.RecvTimeout(1, 1, 50*time.Millisecond); err == nil {
			t.Error("recv on closed endpoint succeeded")
		}
	})
}

// TestConformanceDeadline: a receive with no matching sender expires with
// ErrTimeout — both the explicit RecvTimeout and the conn-default path.
func TestConformanceDeadline(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, net Network) {
		c := net.Conn(0)
		start := time.Now()
		if _, err := c.RecvTimeout(1, 9, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("RecvTimeout error = %v, want ErrTimeout", err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("deadline expiry took %v", el)
		}
		c.SetRecvTimeout(30 * time.Millisecond)
		if _, err := c.Recv(1, 9); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Recv with default deadline error = %v, want ErrTimeout", err)
		}
		// A message that is already queued beats any deadline.
		if err := net.Conn(1).Send(0, 9, []byte("x")); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvTimeout(1, 9, time.Second)
		if err != nil || !bytes.Equal(got, []byte("x")) {
			t.Fatalf("queued message not delivered under deadline: %q, %v", got, err)
		}
	})
}

// TestConformanceAbortUnblocks: one rank aborting the job unblocks every
// peer's pending receive with ErrAborted, well before any deadline.
func TestConformanceAbortUnblocks(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, net Network) {
		start := time.Now()
		errs := ranksErr(4, net.Conn, func(c Conn) error {
			if c.Rank() == 3 {
				time.Sleep(20 * time.Millisecond)
				c.Abort(errors.New("rank 3 failed"))
				return nil
			}
			// Peers block with a generous backstop deadline; the abort
			// must beat it by far.
			_, err := c.RecvTimeout(3, 5, 30*time.Second)
			return err
		})
		for r := 0; r < 3; r++ {
			if !errors.Is(errs[r], ErrAborted) {
				t.Errorf("rank %d error = %v, want ErrAborted", r, errs[r])
			}
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("abort took %v to unblock peers", el)
		}
		// The abort is sticky: future operations fail too.
		if err := net.Conn(0).Send(1, 5, nil); !errors.Is(err, ErrAborted) {
			t.Errorf("send after abort error = %v, want ErrAborted", err)
		}
		if _, err := net.Conn(1).RecvTimeout(0, 5, time.Second); !errors.Is(err, ErrAborted) {
			t.Errorf("recv after abort error = %v, want ErrAborted", err)
		}
	})
}

// TestConformanceAbortCausePropagation: the cause a failing rank aborts
// with keeps its error identity on every surviving rank — the error a
// survivor's receive reports must errors.Is-match both ErrAborted and the
// originating cause.  Recovery's failure classification unwraps the abort a
// survivor observed to tell crashed ranks from abort victims, so a cause
// flattened to a string (%v instead of %w anywhere on the path) breaks it.
func TestConformanceAbortCausePropagation(t *testing.T) {
	cause := errors.New("simulated rank failure")
	forEachTransport(t, 3, func(t *testing.T, net Network) {
		errs := ranksErr(3, net.Conn, func(c Conn) error {
			if c.Rank() == 1 {
				// Abort the way cluster.RunParallel does on a rank error:
				// the rank's failure wrapped with node attribution.
				c.Abort(fmt.Errorf("node 1: %w", cause))
				return nil
			}
			_, err := c.RecvTimeout(1, 7, 30*time.Second)
			return err
		})
		for _, r := range []int{0, 2} {
			if !errors.Is(errs[r], ErrAborted) {
				t.Errorf("rank %d error = %v, want ErrAborted", r, errs[r])
			}
			if !errors.Is(errs[r], cause) {
				t.Errorf("rank %d abort flattened the cause: %v", r, errs[r])
			}
		}
	})
}

// TestInprocSendToClosedPeer: the in-process transport reports an error
// when the destination mailbox is closed (previously the message silently
// vanished).
func TestInprocSendToClosedPeer(t *testing.T) {
	net := NewInproc(2)
	defer net.Close()
	if err := net.Conn(1).Close(); err != nil {
		t.Fatal(err)
	}
	if err := net.Conn(0).Send(1, 1, []byte("gone")); !errors.Is(err, ErrClosed) {
		t.Errorf("send to closed peer error = %v, want ErrClosed", err)
	}
}

// TestTCPFrameCap: a corrupt frame advertising a near-4GiB length must
// not cause the allocation; it poisons the endpoint with a descriptive
// error instead.
func TestTCPFrameCap(t *testing.T) {
	// The cap belongs to the network under test: rewriting a package-level
	// cap here raced with read loops earlier tests left running.
	net, err := newTCP(2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	// An in-range frame passes.
	if err := net.Conn(0).Send(1, 1, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.conns[1].RecvTimeout(0, 1, time.Second); err != nil {
		t.Fatal(err)
	}
	// An oversized send is rejected at the sender.
	if err := net.Conn(0).Send(1, 1, make([]byte, 1<<16+1)); err == nil {
		t.Error("oversized send accepted")
	}
	// A forged oversized wire length poisons the receiving endpoint.
	raw := rawDial(t, net.conns[1].addrs[1])
	defer raw.Close()
	hdr := make([]byte, 12)
	hdr[0] = 0                                                // from rank 0
	hdr[4] = 2                                                // tag 2
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xF0, 0xFF, 0xFF, 0xFF // ~4 GiB
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := net.conns[1].RecvTimeout(0, 2, 2*time.Second); err == nil {
		t.Error("receive after oversized frame succeeded")
	} else if errors.Is(err, ErrTimeout) {
		t.Errorf("oversized frame was ignored (recv timed out): %v", err)
	}
}

// rawDial opens a plain TCP connection for forging wire frames.
func rawDial(t *testing.T, addr string) gonet.Conn {
	t.Helper()
	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}
