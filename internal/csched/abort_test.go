package csched

import (
	"errors"
	"testing"
	"time"

	"cucc/internal/transport"
)

// failureSchedules are the schedules the failure tests run, each at a rank
// count it applies to.
func failureSchedules() []*Schedule {
	return []*Schedule{GenRing(4, 1), GenRecDouble(4), GenTwoLevel(6), GenRing(4, 3)}
}

// runWithoutLast runs s on every rank of a fresh in-process network but the
// last, each with the given receive deadline, while absent stands in for the
// last rank.  Every participant needs the last rank's chunk, so none can
// finish; it returns their errors, or fails the test if they hang past 30 s.
func runWithoutLast(t *testing.T, s *Schedule, recvTimeout time.Duration, absent func(c transport.Conn)) []error {
	t.Helper()
	n := s.NRanks
	net := transport.NewInproc(n)
	defer net.Close()
	rankOffs := uniformOffsets(n, 8)
	offs := SplitOffsets(rankOffs, s.ChunksPerRank)
	errs := make([]error, n-1)
	done := make(chan int, n)
	for r := 0; r < n-1; r++ {
		go func(r int) {
			c := net.Conn(r)
			c.SetRecvTimeout(recvTimeout)
			_, errs[r] = Execute(c, fill(rankOffs, r), offs, s)
			done <- r
		}(r)
	}
	go absent(net.Conn(n - 1))
	deadline := time.After(30 * time.Second)
	for i := 0; i < n-1; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("%s: ranks still blocked after 30s", s)
		}
	}
	return errs
}

// TestExecuteUnblocksOnAbort: the last rank never joins the schedule and
// aborts the job instead; every participant must return ErrAborted well
// before its 30 s backstop deadline.
func TestExecuteUnblocksOnAbort(t *testing.T) {
	for _, s := range failureSchedules() {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			errs := runWithoutLast(t, s, 30*time.Second, func(c transport.Conn) {
				time.Sleep(10 * time.Millisecond)
				c.Abort(errors.New("injected failure"))
			})
			if el := time.Since(start); el > 10*time.Second {
				t.Fatalf("abort took %v to unblock the schedule", el)
			}
			for r, err := range errs {
				if !errors.Is(err, transport.ErrAborted) {
					t.Errorf("rank %d error = %v, want ErrAborted", r, err)
				}
			}
		})
	}
}

// TestExecuteTimesOutOnAbsentRank: with no abort at all — the last rank is
// simply absent — the receive deadline alone must fail every participant
// with ErrTimeout.
func TestExecuteTimesOutOnAbsentRank(t *testing.T) {
	for _, s := range failureSchedules() {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			errs := runWithoutLast(t, s, 200*time.Millisecond, func(transport.Conn) {})
			for r, err := range errs {
				if !errors.Is(err, transport.ErrTimeout) {
					t.Errorf("rank %d error = %v, want ErrTimeout", r, err)
				}
			}
		})
	}
}
