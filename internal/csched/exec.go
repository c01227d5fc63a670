package csched

import (
	"fmt"
	"sync"
	"time"

	"cucc/internal/comm"
	"cucc/internal/transport"
)

// tagSched separates schedule-executor traffic from comm's own barrier
// and ring (tags 1 and 4).  One tag suffices for all schedules: the
// verifier proves per-(src,dst) ranges arrive in program order, which is
// exactly the FIFO guarantee the transport gives per (sender, tag).
const tagSched = 20

// execOps holds the executor's metric names per schedule algorithm,
// comm.sched_<algo>.*: the "comm." prefix keeps the registry cross-check
// invariant (summed comm.* == transport.* totals) intact across comm's
// collectives and schedules.
var execOps sync.Map // algo string -> *comm.Op

func execOp(algo string) *comm.Op {
	if v, ok := execOps.Load(algo); ok {
		return v.(*comm.Op)
	}
	v, _ := execOps.LoadOrStore(algo, comm.NewOp("sched_"+algo))
	return v.(*comm.Op)
}

// Execute runs this rank's program of the schedule over the transport,
// gathering into buf in place: chunk c is buf[offs[c]:offs[c+1]], and on
// entry the caller's own chunks (rank*ChunksPerRank ... ) are valid.  It
// copies its sends out of a send arena it allocates for the call;
// ExecuteArena is the same executor over an arena the caller lends.
//
// Accounting matches comm's collectives: a send counts only
// once the transport accepted it, every receive counts its actual bytes,
// so summed over ranks Msgs == Recvs and BytesSent == BytesRecvd.
func Execute(c transport.Conn, buf []byte, offs []int, s *Schedule) (comm.Stats, error) {
	return ExecuteArena(c, buf, offs, s, make([]byte, s.ArenaLen(c.Rank(), offs)))
}

// forwarder tracks, step by step through a rank's program, the latest Recv
// whose slice a send can still forward: a send of exactly the range the rank
// last received passes on the slice that Recv returned instead of copying it
// out of buf again.  It is already in place, nothing writes to it, and
// ownership passes on with the Send as Conn's contract says.  (This is the
// ring's whole steady state.)  Once forwarded the slice is gone, so a second
// send of the same range copies, as does every other send.  An OpCopy may
// rewrite the received range in buf, after which the slice no longer stands
// for it.
type forwarder struct {
	lo, hi int
	ok     bool
}

// step advances over one program step and reports whether it is a send that
// forwards.
func (f *forwarder) step(st Step) bool {
	switch st.Op {
	case OpRecv:
		f.lo, f.hi, f.ok = st.Lo, st.Hi, true
	case OpCopy:
		f.ok = false
	case OpSend:
		if f.ok && st.Lo == f.lo && st.Hi == f.hi {
			f.ok = false
			return true
		}
	}
	return false
}

// ArenaLen is the send arena rank's program needs over offs: the bytes of
// every send that copies rather than forwards.  It is 0 when rank or offs
// do not fit the schedule (the executor then rejects the call).
func (s *Schedule) ArenaLen(rank int, offs []int) int {
	if rank < 0 || rank >= len(s.Steps) || len(offs) != s.NChunks()+1 {
		return 0
	}
	var f forwarder
	n := 0
	for _, step := range s.Steps[rank] {
		if !f.step(step) && step.Op == OpSend {
			n += max(0, offs[step.Hi]-offs[step.Lo])
		}
	}
	return n
}

// ExecuteArena is Execute with the send arena supplied by the caller, who
// must hold at least s.ArenaLen(c.Rank(), offs) bytes; their contents are
// arbitrary, since every byte sent is written first.  The slices cut from
// it travel as messages, and the ring forwards them through every other
// rank, so the caller may reuse the arena only once every rank's executor
// has returned without error.
func ExecuteArena(c transport.Conn, buf []byte, offs []int, s *Schedule, arena []byte) (st comm.Stats, err error) {
	defer execOp(s.Algo).Record(c, time.Now(), &st, &err)
	n := c.Size()
	if s.NRanks != n {
		return st, fmt.Errorf("csched: schedule compiled for %d ranks, conn has %d", s.NRanks, n)
	}
	nc := s.NChunks()
	if len(offs) != nc+1 {
		return st, fmt.Errorf("csched: need %d chunk offsets, got %d", nc+1, len(offs))
	}
	if offs[0] < 0 {
		return st, fmt.Errorf("csched: offset[0] is negative (%d)", offs[0])
	}
	for i := 0; i < nc; i++ {
		if offs[i+1] < offs[i] {
			return st, fmt.Errorf("csched: offsets not monotonic: offs[%d]=%d > offs[%d]=%d", i, offs[i], i+1, offs[i+1])
		}
	}
	if offs[nc] > len(buf) {
		return st, fmt.Errorf("csched: offsets exceed buffer (%d > %d)", offs[nc], len(buf))
	}
	r := c.Rank()
	if need := s.ArenaLen(r, offs); len(arena) < need {
		return st, fmt.Errorf("csched: send arena holds %d bytes, rank %d needs %d", len(arena), r, need)
	}
	pos := 0

	var in []byte // what the latest Recv returned
	var f forwarder
	for _, step := range s.Steps[r] {
		forward := f.step(step)
		switch step.Op {
		case OpSend:
			out := in
			if !forward {
				chunk := buf[offs[step.Lo]:offs[step.Hi]]
				end := pos + len(chunk)
				out, pos = arena[pos:end:end], end
				copy(out, chunk)
			}
			if err = c.Send(step.Peer, tagSched, out); err != nil {
				return st, err
			}
			st.Msgs++
			st.BytesSent += int64(len(out))
		case OpRecv:
			in, err = c.Recv(step.Peer, tagSched)
			if err != nil {
				return st, err
			}
			st.Recvs++
			st.BytesRecvd += int64(len(in))
			want := offs[step.Hi] - offs[step.Lo]
			if len(in) != want {
				return st, fmt.Errorf("csched: chunk range [%d,%d) size mismatch: got %d, want %d", step.Lo, step.Hi, len(in), want)
			}
			copy(buf[offs[step.Lo]:], in)
		case OpCopy:
			want := offs[step.Hi] - offs[step.Lo]
			srcHi := step.SrcLo + (step.Hi - step.Lo)
			if got := offs[srcHi] - offs[step.SrcLo]; got != want {
				return st, fmt.Errorf("csched: copy [%d,%d) <- %d moves %d bytes into %d", step.Lo, step.Hi, step.SrcLo, got, want)
			}
			copy(buf[offs[step.Lo]:offs[step.Hi]], buf[offs[step.SrcLo]:offs[srcHi]])
		}
	}
	return st, nil
}
