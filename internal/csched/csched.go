// Package csched is a small collective-schedule compiler: instead of
// hardcoding one Allgather algorithm, the runtime synthesizes candidate
// schedules from a per-rank step IR (send/recv/copy over chunk indices),
// costs them with the alpha-beta network model, and executes the cheapest
// one over the point-to-point transport.
//
// The design follows GC3's thesis (see PAPERS.md) that collectives compiled
// from a schedule IR beat fixed algorithms: the same executor runs a ring,
// a recursive-doubling exchange, a hierarchical two-level ring, or a
// chunked-pipelined ring, and the selector picks per (bytes, nranks).
// Chunked schedules additionally expose *progress*: the first chunk of the
// collective lands long before the last one, which is what lets the
// three-phase runtime start phase-3 callback blocks while later Allgather
// chunks are still in flight (see internal/core).
//
// The unit of data movement is a chunk: rank r's contribution to the
// Allgather is split into ChunksPerRank equal spans, and chunk index
// c covers rank c/ChunksPerRank's span c%ChunksPerRank.  A Step moves a
// contiguous chunk range [Lo, Hi) — one transport message — so multi-chunk
// algorithms (recursive doubling, two-level) stay one-message-per-round.
package csched

import (
	"fmt"
	"sync"
)

// OpKind is the operation of one schedule step.
type OpKind uint8

const (
	// OpSend transmits the chunk range [Lo, Hi) to Peer.  Sends are
	// asynchronous, matching the transport: a rank may issue a send and
	// immediately continue to the paired receive.
	OpSend OpKind = iota
	// OpRecv blocks for the chunk range [Lo, Hi) from Peer and stores it
	// into place.
	OpRecv
	// OpCopy copies the chunk range [SrcLo, SrcLo+(Hi-Lo)) into [Lo, Hi)
	// locally (no traffic; used by out-of-place schedules).
	OpCopy
)

func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	default:
		return "copy"
	}
}

// Step is one operation of one rank's schedule program.
type Step struct {
	Op   OpKind
	Peer int // peer rank for send/recv (unused for copy)
	// Lo, Hi bound the chunk range [Lo, Hi) the step moves.
	Lo, Hi int
	// SrcLo is the source chunk of an OpCopy (range length Hi-Lo).
	SrcLo int
}

func (s Step) String() string {
	if s.Op == OpCopy {
		return fmt.Sprintf("copy [%d,%d) <- %d", s.Lo, s.Hi, s.SrcLo)
	}
	return fmt.Sprintf("%s [%d,%d) peer %d", s.Op, s.Lo, s.Hi, s.Peer)
}

// Schedule is a compiled collective: one step program per rank over a
// shared chunk index space of NRanks*ChunksPerRank chunks.
type Schedule struct {
	// Algo names the generator that produced the schedule.
	Algo string
	// NRanks is the rank count the schedule is compiled for.
	NRanks int
	// ChunksPerRank is the pipelining factor: each rank's contribution is
	// split into this many sub-chunks (1 = unchunked).
	ChunksPerRank int
	// Steps is the per-rank step program (Steps[r] runs on rank r, in
	// order).
	Steps [][]Step
}

// NChunks returns the size of the schedule's chunk index space.
func (s *Schedule) NChunks() int { return s.NRanks * s.ChunksPerRank }

func (s *Schedule) String() string {
	if s.ChunksPerRank > 1 {
		return fmt.Sprintf("%s:%d", s.Algo, s.ChunksPerRank)
	}
	return s.Algo
}

// --- generators ---

// GenRing synthesizes the (optionally pipelined) ring Allgather: k=1 is
// the paper's balanced in-place ring — n-1 steps, each forwarding the
// chunk received the step before — and k>1 splits every chunk into k
// sub-chunks exchanged back-to-back, so the first sub-chunk lands after
// 1/k of a full step.
func GenRing(n, k int) *Schedule {
	if k < 1 {
		k = 1
	}
	algo := "ring"
	if k > 1 {
		algo = "pipeline"
	}
	s := &Schedule{Algo: algo, NRanks: n, ChunksPerRank: k, Steps: make([][]Step, n)}
	for r := 0; r < n; r++ {
		right := (r + 1) % n
		left := (r - 1 + n) % n
		var prog []Step
		for step := 0; step < n-1; step++ {
			sendRank := (r - step + n) % n
			recvRank := (r - step - 1 + n) % n
			for j := 0; j < k; j++ {
				prog = append(prog,
					Step{Op: OpSend, Peer: right, Lo: sendRank*k + j, Hi: sendRank*k + j + 1},
					Step{Op: OpRecv, Peer: left, Lo: recvRank*k + j, Hi: recvRank*k + j + 1})
			}
		}
		s.Steps[r] = prog
	}
	return s
}

// GenRecDouble synthesizes the recursive-doubling Allgather for
// power-of-two rank counts: log2(n) rounds, each exchanging the rank's
// whole aligned group with the partner group, doubling the owned range.
// Returns nil when n is not a power of two.
func GenRecDouble(n int) *Schedule {
	if n < 2 || n&(n-1) != 0 {
		return nil
	}
	s := &Schedule{Algo: "recdouble", NRanks: n, ChunksPerRank: 1, Steps: make([][]Step, n)}
	for r := 0; r < n; r++ {
		var prog []Step
		for dist := 1; dist < n; dist *= 2 {
			peer := r ^ dist
			groupStart := (r / dist) * dist
			peerStart := (peer / dist) * dist
			prog = append(prog,
				Step{Op: OpSend, Peer: peer, Lo: groupStart, Hi: groupStart + dist},
				Step{Op: OpRecv, Peer: peer, Lo: peerStart, Hi: peerStart + dist})
		}
		s.Steps[r] = prog
	}
	return s
}

// GenTwoLevel synthesizes the hierarchical two-level ring for composite
// rank counts n = groups*groupSize: first a ring Allgather inside each
// group of consecutive ranks, then a ring across groups moving whole
// group blocks (one message per round), cutting the latency term from
// (n-1) messages to (groups+groupSize-2).  Returns nil when n is prime
// (or < 4), where the hierarchy degenerates to the flat ring.
func GenTwoLevel(n int) *Schedule {
	h := largestFactor(n)
	if h <= 1 || h == n {
		return nil
	}
	g := n / h // number of groups, each of h consecutive ranks
	s := &Schedule{Algo: "twolevel", NRanks: n, ChunksPerRank: 1, Steps: make([][]Step, n)}
	for r := 0; r < n; r++ {
		grp, i := r/h, r%h
		var prog []Step
		// Stage 1: ring over the h members of this group (group chunks).
		right := grp*h + (i+1)%h
		left := grp*h + (i-1+h)%h
		for step := 0; step < h-1; step++ {
			sendIdx := grp*h + (i-step+h)%h
			recvIdx := grp*h + (i-step-1+h)%h
			prog = append(prog,
				Step{Op: OpSend, Peer: right, Lo: sendIdx, Hi: sendIdx + 1},
				Step{Op: OpRecv, Peer: left, Lo: recvIdx, Hi: recvIdx + 1})
		}
		// Stage 2: ring across groups at the same intra-group index,
		// forwarding whole h-chunk group blocks.
		colRight := ((grp+1)%g)*h + i
		colLeft := ((grp-1+g)%g)*h + i
		for step := 0; step < g-1; step++ {
			sendGrp := (grp - step + g) % g
			recvGrp := (grp - step - 1 + g) % g
			prog = append(prog,
				Step{Op: OpSend, Peer: colRight, Lo: sendGrp * h, Hi: sendGrp*h + h},
				Step{Op: OpRecv, Peer: colLeft, Lo: recvGrp * h, Hi: recvGrp*h + h})
		}
		s.Steps[r] = prog
	}
	return s
}

// largestFactor returns the largest divisor of n that is <= sqrt(n)
// (1 for primes), giving the most balanced two-level split h >= groups.
func largestFactor(n int) int {
	best := 1
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			best = f
		}
	}
	if best == 1 {
		return 1
	}
	// Use the *larger* cofactor as the group size so stage-1 rings (small
	// messages) absorb more of the latency steps.
	return n / best
}

// --- generation cache ---

type genKey struct {
	algo string
	n, k int
}

var genCache sync.Map // genKey -> *Schedule (verified)

// generate builds (or returns the cached, verified) schedule for one
// (algo, n, k).  Every cached schedule has passed Verify; a generator bug
// surfaces as an error here, never as silent data corruption.
func generate(algo string, n, k int) (*Schedule, error) {
	key := genKey{algo, n, k}
	if v, ok := genCache.Load(key); ok {
		return v.(*Schedule), nil
	}
	var s *Schedule
	switch algo {
	case "ring":
		s = GenRing(n, 1)
	case "pipeline":
		s = GenRing(n, k)
	case "recdouble":
		s = GenRecDouble(n)
	case "twolevel":
		s = GenTwoLevel(n)
	default:
		return nil, fmt.Errorf("csched: unknown algorithm %q", algo)
	}
	if s == nil {
		return nil, fmt.Errorf("csched: %s has no schedule for %d ranks", algo, n)
	}
	if err := Verify(s); err != nil {
		return nil, fmt.Errorf("csched: generated %s schedule is invalid: %w", s, err)
	}
	genCache.Store(key, s)
	return s, nil
}

// SplitOffsets refines a per-rank byte-offset table (len nranks+1) into
// the per-chunk table of a k-chunked schedule
// (len nranks*k+1): each rank span splits into k near-equal sub-spans,
// the first len%k of them one byte longer.  k=1 returns a copy.
func SplitOffsets(rankOffs []int, k int) []int {
	n := len(rankOffs) - 1
	if k < 1 {
		k = 1
	}
	out := make([]int, 0, n*k+1)
	for r := 0; r < n; r++ {
		lo, hi := rankOffs[r], rankOffs[r+1]
		span := hi - lo
		base, rem := span/k, span%k
		off := lo
		for j := 0; j < k; j++ {
			out = append(out, off)
			off += base
			if j < rem {
				off++
			}
		}
	}
	out = append(out, rankOffs[n])
	return out
}
