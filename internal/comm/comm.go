// Package comm implements the collective communication operations of the
// CuCC runtime library over a point-to-point transport.
//
// Phase-2 Allgathers run on internal/csched's schedule executor; what
// remains here is the dissemination barrier the PGAS baseline uses and the
// paper's balanced in-place ring Allgather (§2.3, §4) as a standalone
// collective, plus the per-rank traffic Stats both layers report.
package comm

import (
	"fmt"
	"time"

	"cucc/internal/transport"
)

// Tags separate the message streams of different collective operations.
const (
	tagBarrier = 1
	tagRing    = 4
)

// Stats counts the traffic one rank exchanged during a collective, both
// directions.  Accounting is symmetric: summed over all ranks of one
// collective, Msgs == Recvs and BytesSent == BytesRecvd — every message has
// exactly one counted sender and one counted receiver.
type Stats struct {
	Msgs       int64
	BytesSent  int64
	Recvs      int64
	BytesRecvd int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Msgs += o.Msgs
	s.BytesSent += o.BytesSent
	s.Recvs += o.Recvs
	s.BytesRecvd += o.BytesRecvd
}

// Barrier is a dissemination barrier: ceil(log2 N) rounds, each rank
// signaling rank (r + 2^k) mod N.
func Barrier(c transport.Conn) (st Stats, err error) {
	defer record(c, &opBarrier, time.Now(), &st, &err)
	n := c.Size()
	for dist := 1; dist < n; dist *= 2 {
		to := (c.Rank() + dist) % n
		from := (c.Rank() - dist + n) % n
		if err := c.Send(to, tagBarrier, nil); err != nil {
			return st, err
		}
		st.Msgs++
		if _, err := c.Recv(from, tagBarrier); err != nil {
			return st, err
		}
		st.Recvs++
	}
	return st, nil
}

// AllgatherRing performs the balanced in-place ring Allgather: buf holds
// Size() equal chunks of chunkBytes; on entry each rank's own chunk
// (index Rank()) is valid; on exit all chunks are valid on every rank.
//
// Step 0 sends a copy of the rank's own chunk; every later step forwards
// the very slice the previous Recv returned.  That slice has already been
// copied into buf and is never written again, and Conn's contract hands
// ownership to the transport with each Send, so passing it on is safe over
// every transport and costs one chunk-sized allocation per call.
func AllgatherRing(c transport.Conn, buf []byte, chunkBytes int) (st Stats, err error) {
	defer record(c, &opRing, time.Now(), &st, &err)
	n, r := c.Size(), c.Rank()
	if chunkBytes == 0 || n == 1 {
		return st, nil
	}
	if len(buf) != n*chunkBytes {
		return st, fmt.Errorf("comm: allgather buffer is %d bytes, want %d chunks of %d", len(buf), n, chunkBytes)
	}
	right := (r + 1) % n
	left := (r - 1 + n) % n
	out := append([]byte(nil), buf[r*chunkBytes:(r+1)*chunkBytes]...)
	for step := 0; step < n-1; step++ {
		if err := c.Send(right, tagRing, out); err != nil {
			return st, err
		}
		st.Msgs++
		st.BytesSent += int64(len(out))
		in, err := c.Recv(left, tagRing)
		if err != nil {
			return st, err
		}
		st.Recvs++
		st.BytesRecvd += int64(len(in))
		recvChunk := (r - step - 1 + n) % n
		if len(in) != chunkBytes {
			return st, fmt.Errorf("comm: allgather chunk %d size mismatch: got %d, want %d", recvChunk, len(in), chunkBytes)
		}
		copy(buf[recvChunk*chunkBytes:], in)
		out = in
	}
	return st, nil
}
