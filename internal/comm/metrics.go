package comm

import (
	"time"

	"cucc/internal/transport"
)

// Per-collective metrics.  Every collective records one entry per call
// into the registry attached to the conn (by the metered transport
// decorator), as csched's executor does under comm.sched_<algo>, so summed
// over all comm.* ops the msgs/bytes counters equal the transport.* totals
// exactly — the cross-check invariant the suites-level test enforces.
//
// Names are precomputed per op so the record path performs no string
// concatenation; an unmetered conn costs one type assertion.

// opNames is the metric name set of one collective operation.
type opNames struct {
	calls, msgs, bytesSent, recvs, bytesRecvd, errors, seconds string
}

func makeOpNames(op string) opNames {
	p := "comm." + op
	return opNames{
		calls:      p + ".calls",
		msgs:       p + ".msgs",
		bytesSent:  p + ".bytes_sent",
		recvs:      p + ".recvs",
		bytesRecvd: p + ".bytes_recvd",
		errors:     p + ".errors",
		seconds:    p + ".seconds",
	}
}

var (
	opBarrier = makeOpNames("barrier")
	opRing    = makeOpNames("allgather_ring")
)

// record books one completed (or failed) collective call: the final Stats,
// the error outcome, and the wall latency.  Designed to be deferred with
// pointers to the named results:
//
//	func Barrier(c transport.Conn) (st Stats, err error) {
//		defer record(c, &opBarrier, time.Now(), &st, &err)
//		...
//	}
func record(c transport.Conn, op *opNames, start time.Time, st *Stats, errp *error) {
	reg := transport.RegistryOf(c)
	if reg == nil {
		return
	}
	reg.Counter(op.calls).Add(1)
	reg.Counter(op.msgs).Add(st.Msgs)
	reg.Counter(op.bytesSent).Add(st.BytesSent)
	reg.Counter(op.recvs).Add(st.Recvs)
	reg.Counter(op.bytesRecvd).Add(st.BytesRecvd)
	if *errp != nil {
		reg.Counter(op.errors).Add(1)
	}
	reg.Histogram(op.seconds).Observe(time.Since(start).Seconds())
}
