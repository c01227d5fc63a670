package comm

import (
	"time"

	"cucc/internal/transport"
)

// Per-collective metrics.  Every collective records one entry per call
// into the registry attached to the conn (by the metered transport
// decorator) — comm's own under comm.<op>, csched's executor under
// comm.sched_<algo> — so summed over all comm.* ops the msgs/bytes counters
// equal the transport.* totals exactly, the cross-check invariant the
// suites-level test enforces.
//
// Names are precomputed per op so the record path performs no string
// concatenation; an unmetered conn costs one type assertion.

// Op is the metric name set of one collective operation.
type Op struct {
	calls, msgs, bytesSent, recvs, bytesRecvd, errors, seconds string
}

// NewOp returns the metric names comm.<name>.{calls,msgs,bytes_sent,recvs,
// bytes_recvd,errors,seconds}.
func NewOp(name string) *Op {
	p := "comm." + name
	return &Op{
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
	opBarrier = NewOp("barrier")
	opRing    = NewOp("allgather_ring")
)

// Record books one completed (or failed) collective call: the final Stats,
// the error outcome, and the wall latency.  Designed to be deferred with
// pointers to the named results:
//
//	func Barrier(c transport.Conn) (st Stats, err error) {
//		defer opBarrier.Record(c, time.Now(), &st, &err)
//		...
//	}
func (op *Op) Record(c transport.Conn, start time.Time, st *Stats, errp *error) {
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
