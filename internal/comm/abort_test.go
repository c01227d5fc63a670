package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"cucc/internal/transport"
)

// collectiveCase invokes one collective on a participating rank for abort
// and timeout tests; the concrete buffers just need to be structurally
// valid for n ranks.  `absent` is the rank withheld from the collective, so
// that at least one peer demonstrably blocks on it.
type collectiveCase struct {
	name   string
	absent int
	run    func(c transport.Conn, n int) error
}

func collectiveCases(n int) []collectiveCase {
	return []collectiveCase{
		{"Barrier", n - 1, func(c transport.Conn, n int) error {
			_, err := Barrier(c)
			return err
		}},
		{"AllgatherRing", n - 1, func(c transport.Conn, n int) error {
			_, err := AllgatherRing(c, make([]byte, 8*n), 8)
			return err
		}},
	}
}

// TestCollectivesUnblockOnAbort: one rank never joins the collective and
// aborts the job instead; every participating rank must return ErrAborted
// well before its 30s backstop deadline.  Pre-abort these would hang.
func TestCollectivesUnblockOnAbort(t *testing.T) {
	const n = 4
	for _, tc := range collectiveCases(n) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			net := transport.NewInproc(n)
			defer net.Close()
			start := time.Now()
			var wg sync.WaitGroup
			errs := make([]error, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := net.Conn(r)
					if r == tc.absent {
						time.Sleep(10 * time.Millisecond)
						c.Abort(errors.New("injected failure"))
						return
					}
					c.SetRecvTimeout(30 * time.Second)
					errs[r] = tc.run(c, n)
				}(r)
			}
			wg.Wait()
			if el := time.Since(start); el > 10*time.Second {
				t.Fatalf("abort took %v to unblock the collective", el)
			}
			// Ranks whose schedule finished before the abort (e.g. gather
			// leaves, which only send) may return nil; every rank that was
			// still blocked must surface ErrAborted, and at least one —
			// whoever waits on the absent rank — always is.
			aborted := 0
			for r := 0; r < n; r++ {
				if r == tc.absent || errs[r] == nil {
					continue
				}
				if !errors.Is(errs[r], transport.ErrAborted) {
					t.Errorf("rank %d error = %v, want ErrAborted", r, errs[r])
				}
				aborted++
			}
			if aborted == 0 {
				t.Error("no rank observed the abort; the collective completed without the absent rank")
			}
		})
	}
}

// TestCollectivesTimeoutOnAbsentRank: with no abort at all — one rank is
// simply absent — the receive deadline must still bound every blocked
// rank.  Ranks that wait on the absent peer get ErrTimeout; ranks whose
// schedule never needs it (e.g. gather leaves) may finish cleanly, but
// nobody may hang.
func TestCollectivesTimeoutOnAbsentRank(t *testing.T) {
	const n = 4
	for _, tc := range collectiveCases(n) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			net := transport.NewInproc(n)
			defer net.Close()
			done := make(chan []error, 1)
			go func() {
				var wg sync.WaitGroup
				errs := make([]error, n)
				for r := 0; r < n; r++ {
					if r == tc.absent {
						continue
					}
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						c := net.Conn(r)
						c.SetRecvTimeout(200 * time.Millisecond)
						errs[r] = tc.run(c, n)
					}(r)
				}
				wg.Wait()
				done <- errs
			}()
			select {
			case errs := <-done:
				sawTimeout := false
				for r, err := range errs {
					if err == nil {
						continue
					}
					if !errors.Is(err, transport.ErrTimeout) {
						t.Errorf("rank %d error = %v, want ErrTimeout or nil", r, err)
					}
					sawTimeout = true
				}
				if !sawTimeout {
					t.Errorf("no rank timed out although rank %d never participated", tc.absent)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("collective hung despite receive deadline")
			}
		})
	}
}
