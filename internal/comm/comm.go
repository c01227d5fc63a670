// Package comm implements the collective communication operations of the
// CuCC runtime library over a point-to-point transport: the mini-MPI of
// this repository.
//
// The central operation is the balanced-in-place ring Allgather the paper's
// three-phase workflow relies on (§2.3, §4); the package also provides the
// out-of-place and imbalanced (vector) variants evaluated in the Figure 3
// ablation, recursive doubling, broadcast, barrier, and reductions.
package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"cucc/internal/transport"
)

// Tags separate the message streams of different collective operations.
const (
	tagBarrier = 1
	tagBcast   = 2
	tagGather  = 3
	tagRing    = 4
	tagReduce  = 5
	tagP2P     = 6
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

// recvd records one received message of len(data) bytes.
func (s *Stats) recvd(data []byte) {
	s.Recvs++
	s.BytesRecvd += int64(len(data))
}

// Send is a tracked point-to-point send.  A failed send counts nothing:
// only messages the transport accepted appear in Stats.
func Send(c transport.Conn, to int, data []byte) (st Stats, err error) {
	defer record(c, &opP2PSend, time.Now(), &st, &err)
	if err = c.Send(to, tagP2P, data); err != nil {
		return st, err
	}
	st.Msgs = 1
	st.BytesSent = int64(len(data))
	return st, nil
}

// Recv is the matching point-to-point receive.
func Recv(c transport.Conn, from int) ([]byte, error) {
	var st Stats
	var err error
	defer record(c, &opP2PRecv, time.Now(), &st, &err)
	var data []byte
	data, err = c.Recv(from, tagP2P)
	if err == nil {
		st.recvd(data)
	}
	return data, err
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

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received copy.
func Bcast(c transport.Conn, root int, data []byte) (out []byte, st Stats, err error) {
	defer record(c, &opBcast, time.Now(), &st, &err)
	n := c.Size()
	if n == 1 {
		return data, st, nil
	}
	// Relative rank with root at 0.  Non-roots receive from the rank that
	// differs in their lowest set bit; everyone then forwards to the ranks
	// below that bit.
	rel := (c.Rank() - root + n) % n
	firstMask := 1
	for firstMask < n {
		firstMask *= 2
	}
	firstMask /= 2
	if rel != 0 {
		lowest := rel & -rel
		from := ((rel - lowest) + root) % n
		got, err := c.Recv(from, tagBcast)
		if err != nil {
			return nil, st, err
		}
		st.recvd(got)
		data = got
		firstMask = lowest / 2
	}
	for mask := firstMask; mask > 0; mask /= 2 {
		if rel+mask < n {
			to := ((rel + mask) + root) % n
			if err := c.Send(to, tagBcast, data); err != nil {
				return nil, st, err
			}
			st.Msgs++
			st.BytesSent += int64(len(data))
		}
	}
	return data, st, nil
}

// AllgatherRing performs the balanced in-place ring Allgather: buf holds
// Size() equal chunks of chunkBytes; on entry each rank's own chunk
// (index Rank()) is valid; on exit all chunks are valid on every rank.
func AllgatherRing(c transport.Conn, buf []byte, chunkBytes int) (st Stats, err error) {
	defer record(c, &opRing, time.Now(), &st, &err)
	n := c.Size()
	if chunkBytes == 0 || n == 1 {
		return st, nil
	}
	if len(buf) != n*chunkBytes {
		return st, fmt.Errorf("comm: allgather buffer is %d bytes, want %d chunks of %d", len(buf), n, chunkBytes)
	}
	err = ringSteps(c, &st, func(i int) []byte { return buf[i*chunkBytes : (i+1)*chunkBytes] })
	return st, err
}

// ringSteps runs the n-1 steps of the in-place ring over the chunks that
// chunk(i) slices out of the caller's buffer.  Step 0 sends a copy of the
// rank's own chunk; every later step forwards the very slice the previous
// Recv returned.  That slice has already been copied into the buffer and is
// never written again, and Conn's contract hands ownership to the transport
// with each Send, so passing it on is safe over every transport — and costs
// one chunk-sized allocation and one copy per hop where a send arena cost an
// (n-1)-chunk zero-fill and two.
func ringSteps(c transport.Conn, st *Stats, chunk func(i int) []byte) error {
	n, r := c.Size(), c.Rank()
	right := (r + 1) % n
	left := (r - 1 + n) % n
	out := append([]byte(nil), chunk(r)...)
	for step := 0; step < n-1; step++ {
		if err := c.Send(right, tagRing, out); err != nil {
			return err
		}
		st.Msgs++
		st.BytesSent += int64(len(out))
		in, err := c.Recv(left, tagRing)
		if err != nil {
			return err
		}
		st.recvd(in)
		recvChunk := (r - step - 1 + n) % n
		dst := chunk(recvChunk)
		if len(in) != len(dst) {
			return fmt.Errorf("comm: allgather chunk %d size mismatch: got %d, want %d", recvChunk, len(in), len(dst))
		}
		copy(dst, in)
		out = in
	}
	return nil
}

// AllgatherVRing is the imbalanced (vector) ring Allgather: offs has
// Size()+1 entries; rank i's chunk is buf[offs[i]:offs[i+1]].
func AllgatherVRing(c transport.Conn, buf []byte, offs []int) (st Stats, err error) {
	defer record(c, &opVRing, time.Now(), &st, &err)
	n := c.Size()
	if n == 1 {
		return st, nil
	}
	if len(offs) != n+1 {
		return st, fmt.Errorf("comm: allgatherv needs %d offsets, got %d", n+1, len(offs))
	}
	// Offsets index the shared buffer on every rank: a negative or
	// non-monotonic table would slice out of range (panic) or alias
	// chunks (silent corruption), so validate the whole table up front.
	if offs[0] < 0 {
		return st, fmt.Errorf("comm: allgatherv offset[0] is negative (%d)", offs[0])
	}
	for i := 0; i < n; i++ {
		if offs[i+1] < offs[i] {
			return st, fmt.Errorf("comm: allgatherv offsets not monotonic: offs[%d]=%d > offs[%d]=%d",
				i, offs[i], i+1, offs[i+1])
		}
	}
	if offs[n] > len(buf) {
		return st, fmt.Errorf("comm: allgatherv offsets exceed buffer (%d > %d)", offs[n], len(buf))
	}
	err = ringSteps(c, &st, func(i int) []byte { return buf[offs[i]:offs[i+1]] })
	return st, err
}

// AllgatherOutOfPlace gathers each rank's `in` into `out` (len(in) *
// Size() bytes): the out-of-place variant of Figure 3, which additionally
// pays a local copy of the rank's own contribution.
func AllgatherOutOfPlace(c transport.Conn, in, out []byte) (Stats, error) {
	n := c.Size()
	chunk := len(in)
	if len(out) != n*chunk {
		return Stats{}, fmt.Errorf("comm: out buffer is %d bytes, want %d", len(out), n*chunk)
	}
	copy(out[c.Rank()*chunk:], in)
	return AllgatherRing(c, out, chunk)
}

// AllgatherRecDouble is the recursive-doubling Allgather for power-of-two
// rank counts (ablation partner of the ring algorithm).
func AllgatherRecDouble(c transport.Conn, buf []byte, chunkBytes int) (st Stats, err error) {
	n := c.Size()
	if chunkBytes == 0 || n == 1 {
		return st, nil
	}
	// Validate before the non-power-of-two fallback so both algorithms
	// reject malformed buffers identically.
	if len(buf) != n*chunkBytes {
		return st, fmt.Errorf("comm: allgather buffer is %d bytes, want %d chunks of %d", len(buf), n, chunkBytes)
	}
	if n&(n-1) != 0 {
		// The fallback records its own metrics (as allgather_ring), so the
		// delegation is not double-counted.
		return AllgatherRing(c, buf, chunkBytes)
	}
	defer record(c, &opRecDouble, time.Now(), &st, &err)
	r := c.Rank()
	// Send arena: the doubling rounds send 1+2+...+n/2 = n-1 chunks total.
	arena := make([]byte, (n-1)*chunkBytes)
	pos := 0
	// At round k the rank owns the 2^k chunks of its aligned group.
	for dist := 1; dist < n; dist *= 2 {
		peer := r ^ dist
		groupStart := (r / dist) * dist
		own := buf[groupStart*chunkBytes : (groupStart+dist)*chunkBytes]
		out := arena[pos : pos+len(own)]
		pos += len(own)
		copy(out, own)
		if err := c.Send(peer, tagRing, out); err != nil {
			return st, err
		}
		st.Msgs++
		st.BytesSent += int64(len(out))
		in, err := c.Recv(peer, tagRing)
		if err != nil {
			return st, err
		}
		st.recvd(in)
		peerStart := (peer / dist) * dist
		copy(buf[peerStart*chunkBytes:], in)
	}
	return st, nil
}

// AllReduceMaxF64 returns the maximum of v across all ranks (used for
// simulated-clock synchronization at collective boundaries).
func AllReduceMaxF64(c transport.Conn, v float64) (out float64, st Stats, err error) {
	defer record(c, &opAllReduceMax, time.Now(), &st, &err)
	n := c.Size()
	r := c.Rank()
	// Largest power of two <= n; ranks [p, n) are the remainder.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	sendVal := func(peer int, x float64) error {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, math.Float64bits(x))
		if err := c.Send(peer, tagReduce, out); err != nil {
			return err
		}
		st.Msgs++
		st.BytesSent += 8
		return nil
	}
	recvVal := func(peer int) (float64, error) {
		in, err := c.Recv(peer, tagReduce)
		if err != nil {
			return 0, err
		}
		st.recvd(in)
		return math.Float64frombits(binary.LittleEndian.Uint64(in)), nil
	}
	// Fold the remainder in: rank p+i contributes to rank i, then waits for
	// the final value.  Every rank in [0, p) then runs a full recursive
	// doubling with no skipped peers — the redundant doubling rounds the
	// old code ran on remainder ranks (and then threw away behind a rank-0
	// re-reduction) are gone.  Total: p*log2(p) + 2*(n-p) messages.
	if r >= p {
		if err := sendVal(r-p, v); err != nil {
			return 0, st, err
		}
		out, err := recvVal(r - p)
		if err != nil {
			return 0, st, err
		}
		return out, st, nil
	}
	if r+p < n {
		pv, err := recvVal(r + p)
		if err != nil {
			return 0, st, err
		}
		if pv > v {
			v = pv
		}
	}
	for dist := 1; dist < p; dist *= 2 {
		peer := r ^ dist
		if err := sendVal(peer, v); err != nil {
			return 0, st, err
		}
		pv, err := recvVal(peer)
		if err != nil {
			return 0, st, err
		}
		if pv > v {
			v = pv
		}
	}
	if r+p < n {
		if err := sendVal(r+p, v); err != nil {
			return 0, st, err
		}
	}
	return v, st, nil
}

// GatherF64 collects one float64 from every rank at root (nil elsewhere).
func GatherF64(c transport.Conn, root int, v float64) (vals []float64, st Stats, err error) {
	defer record(c, &opGatherF64, time.Now(), &st, &err)
	n := c.Size()
	if c.Rank() != root {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		// Count only sends the transport accepted; a failed send must not
		// appear as traffic (the accounting stays symmetric with the root's
		// receive count, matching Barrier/Bcast/AllgatherRing).
		if err := c.Send(root, tagGather, out); err != nil {
			return nil, st, err
		}
		st.Msgs++
		st.BytesSent += 8
		return nil, st, nil
	}
	vals = make([]float64, n)
	vals[root] = v
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		in, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, st, err
		}
		st.recvd(in)
		vals[r] = math.Float64frombits(binary.LittleEndian.Uint64(in))
	}
	return vals, st, nil
}
