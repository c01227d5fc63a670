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
// entry the caller's own chunks (rank*ChunksPerRank ... ) are valid.
//
// Accounting matches comm's collectives: a send counts only
// once the transport accepted it, every receive counts its actual bytes,
// so summed over ranks Msgs == Recvs and BytesSent == BytesRecvd.
func Execute(c transport.Conn, buf []byte, offs []int, s *Schedule) (st comm.Stats, err error) {
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
	prog := s.Steps[r]

	// A send of exactly the range the rank last received forwards the slice
	// that Recv returned instead of copying it out of buf again: it is
	// already in place, nothing writes to it, and ownership passes on with
	// the Send as Conn's contract says.  (This is the ring's whole steady
	// state.)  Once forwarded the slice is gone, so a second send of the same
	// range copies, as does every other send, out of one arena per call —
	// in-flight messages are owned by the transport, so slots are never
	// reused.  An OpCopy may rewrite the received range in buf, after which
	// the slice no longer stands for it.
	forward := make([]bool, len(prog))
	arenaLen := 0
	last := -1 // the latest Recv whose slice can still be forwarded
	for i, step := range prog {
		switch step.Op {
		case OpRecv:
			last = i
		case OpCopy:
			last = -1
		case OpSend:
			if last >= 0 && step.Lo == prog[last].Lo && step.Hi == prog[last].Hi {
				forward[i], last = true, -1
			} else {
				arenaLen += offs[step.Hi] - offs[step.Lo]
			}
		}
	}
	arena := make([]byte, arenaLen)
	pos := 0

	var in []byte // what the latest Recv returned
	for i, step := range prog {
		switch step.Op {
		case OpSend:
			out := in
			if !forward[i] {
				chunk := buf[offs[step.Lo]:offs[step.Hi]]
				out = arena[pos : pos+len(chunk)]
				pos += len(chunk)
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
