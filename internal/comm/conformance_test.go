package comm

import (
	"testing"

	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// TestCollectiveMsgsMatchModel pins every collective's measured message
// count to the closed-form count its simnet cost model assumes.  The
// simulated clocks price communication from these formulas, not from the
// wire — an implementation that sends more (or fewer) messages than its
// model silently skews every simulated-time figure.  (csched's executor is
// pinned to its schedules' Eval the same way.)
func TestCollectiveMsgsMatchModel(t *testing.T) {
	const chunk = 16
	cases := []struct {
		name string
		want func(n int) int64
		run  func(c transport.Conn, n int) (Stats, error)
	}{
		{"Barrier", simnet.BarrierMsgs, func(c transport.Conn, n int) (Stats, error) {
			return Barrier(c)
		}},
		{"AllgatherRing", simnet.RingAllgatherMsgs, func(c transport.Conn, n int) (Stats, error) {
			buf := make([]byte, n*chunk)
			copy(buf[c.Rank()*chunk:], chunkFor(c.Rank(), chunk))
			return AllgatherRing(c, buf, chunk)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 4, 5, 8} {
				stats := make([]Stats, n)
				runAll(t, n, func(c transport.Conn) error {
					st, err := tc.run(c, n)
					stats[c.Rank()] = st
					return err
				})
				var msgs, recvs int64
				for _, st := range stats {
					msgs += st.Msgs
					recvs += st.Recvs
				}
				if want := tc.want(n); msgs != want {
					t.Errorf("n=%d: measured %d msgs, model assumes %d", n, msgs, want)
				}
				if recvs != msgs {
					t.Errorf("n=%d: %d msgs but %d recvs (asymmetric accounting)", n, msgs, recvs)
				}
			}
		})
	}
}
