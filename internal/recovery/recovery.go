// Package recovery implements elastic fault recovery for the three-phase
// launch (ROADMAP item 3).  At launch entry every node holds identical
// memory for each written buffer, and the in-place Allgather is the only
// step that touches the transport, so entry is the one consistency point a
// rank loss needs: a launch checkpoints the written heap regions there and,
// when a rank crashes, re-partitions the grid over the surviving ranks and
// replays instead of aborting.  Block execution is a pure, deterministic
// function of the checkpointed inputs, so a recovered run is bitwise
// identical to a fault-free one.  A block error is not a rank loss: it
// recurs on whichever rank replays the block, so core fails the launch on
// it without classifying.
//
// The package is a leaf: it imports only the transport layer (for failure
// classification), so cluster and core can both depend on it without a
// cycle.  The cluster supplies memory access through closures; core owns
// the replay loop.
package recovery

import (
	"bytes"
	"errors"
	"sort"

	"cucc/internal/transport"
)

// Metric names the recovery path records (in the launch's registry).
const (
	// MetricCheckpoints counts barrier checkpoints captured.
	MetricCheckpoints = "recovery.checkpoints"
	// MetricRestores counts checkpoint restores (one per replayed attempt).
	MetricRestores = "recovery.restores"
	// MetricRepartitions counts restores that re-partitioned the block
	// range over a smaller rank set: every restore does, since every
	// replay starts at launch entry.
	MetricRepartitions = "recovery.repartitions"
	// MetricRejoins counts repaired nodes rejoining the full cluster after
	// a recovered launch completes.
	MetricRejoins = "recovery.rejoins"
)

// DefaultMaxRestores bounds replay attempts per launch when the policy does
// not say otherwise.  Each restore shrinks the group by at least one rank,
// so the bound mostly guards against pathological fault configurations.
const DefaultMaxRestores = 3

// Policy says whether and how far a launch may recover from rank loss.
// The zero value disables recovery, matching the pre-recovery behaviour;
// an explicit Policy{Enabled: false} also disables it, so configuration
// layers can override an enabled default downward.
type Policy struct {
	// Enabled turns barrier checkpointing and replay on.
	Enabled bool
	// MaxRestores bounds replay attempts per launch (<= 0: DefaultMaxRestores).
	MaxRestores int
	// MinRanks is the smallest surviving group worth replaying on
	// (<= 0: 1 — a single survivor re-runs the whole grid locally).
	MinRanks int
}

// EffectiveMaxRestores resolves the replay budget.
func (p Policy) EffectiveMaxRestores() int {
	if p.MaxRestores > 0 {
		return p.MaxRestores
	}
	return DefaultMaxRestores
}

// EffectiveMinRanks resolves the smallest group worth replaying on.
func (p Policy) EffectiveMinRanks() int {
	if p.MinRanks > 0 {
		return p.MinRanks
	}
	return 1
}

// Cursor is the launch position a checkpoint resumes from — the barrier at
// which every participating node held identical memory.
type Cursor uint8

// CursorStart is the launch entry barrier, the only cursor: buffers hold
// their pre-launch contents; replay re-runs phases 1-3, re-partitioned over
// the surviving ranks.
const CursorStart Cursor = 0

// String names the cursor for trace spans and logs.
func (c Cursor) String() string { return "start" }

// Region is one checkpointed span of a node heap.
type Region struct {
	Off, Len int
}

// Checkpoint is the per-node state a resumed launch needs: a snapshot of
// every written buffer's heap region, taken at a barrier where all
// participating nodes agree, plus the launch cursor.  One copy serves every
// node precisely because it is captured at a barrier.
//
// A region that reads all zero at capture keeps no data: its length alone
// records it, and Restore writes zeros back.  An output buffer no launch has
// written yet is exactly that.
type Checkpoint struct {
	// Cursor is the barrier this checkpoint represents.
	Cursor Cursor
	// DistEnd is always 0: a replay from launch entry re-partitions the
	// whole grid, so no block range is recorded as already done.
	DistEnd int

	regions []Region
	data    [][]byte // nil for a region that was all zero
}

// zeroPage is what Capture compares regions against and what Restore writes
// over an elided one, a page at a time, so neither allocates for zeros.
var zeroPage [4096]byte

// allZero reports whether b holds only zero bytes; it stops at the first
// page that does not.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// Capture snapshots the given regions through read, which must return the
// region's current bytes on any one participating node (they are identical
// across nodes at a barrier).  The returned bytes are copied, except those
// of an all-zero region, which is recorded by its length alone.
func Capture(cur Cursor, distEnd int, regions []Region, read func(Region) []byte) *Checkpoint {
	cp := &Checkpoint{
		Cursor:  cur,
		DistEnd: distEnd,
		regions: append([]Region(nil), regions...),
		data:    make([][]byte, len(regions)),
	}
	for i, rg := range cp.regions {
		if b := read(rg); !allZero(b) {
			cp.data[i] = append([]byte(nil), b...)
		}
	}
	return cp
}

// Regions returns the checkpointed heap spans.
func (cp *Checkpoint) Regions() []Region { return cp.regions }

// Bytes is the checkpoint's logical size, the sum of its region lengths:
// what Restore writes, whether or not a region's zeros were stored.
func (cp *Checkpoint) Bytes() int {
	total := 0
	for _, rg := range cp.regions {
		total += rg.Len
	}
	return total
}

// Restore writes every checkpointed region back through write, which the
// caller points at each node being restored in turn.  An all-zero region is
// written as consecutive page-sized sub-regions of zeros, so write may see
// more calls than there are regions, and Restore allocates nothing.
func (cp *Checkpoint) Restore(write func(Region, []byte)) {
	for i, rg := range cp.regions {
		if cp.data[i] != nil {
			write(rg, cp.data[i])
			continue
		}
		for off := 0; off < rg.Len; off += len(zeroPage) {
			n := min(rg.Len-off, len(zeroPage))
			write(Region{Off: rg.Off + off, Len: n}, zeroPage[:n])
		}
	}
}

// NodeFailure is the per-node error attribution the cluster layer attaches
// when a rank's function fails (cluster.NodeError implements it).  Defined
// as an interface here so recovery does not import cluster.
type NodeFailure interface {
	error
	// FailedNode is the cluster node index the error is attributed to.
	FailedNode() int
}

// Classify walks a joined launch error and splits the per-node failures
// into true failures and abort victims.  A node whose attributed error
// wraps transport.ErrAborted only observed some other rank's abort — it is
// a victim, not a cause.  ok is false when no non-aborted failure exists
// (e.g. an external abort such as a deadline, where every rank reports
// ErrAborted): such a launch is not recoverable by excluding ranks.
//
// The walk relies on abort causes being wrapped with %w end to end — the
// reason cluster.RunParallel and transport.abortError must not flatten
// them.  Conservatively, a rank that failed with a non-abort transport
// error (timeout, drop) is classified as failed too; replaying without it
// is always safe, just possibly wider than strictly necessary.
func Classify(err error) (failed []int, ok bool) {
	seen := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if nf, isNode := e.(NodeFailure); isNode {
			node := nf.FailedNode()
			if !seen[node] && !errors.Is(nf, transport.ErrAborted) {
				seen[node] = true
				failed = append(failed, node)
			}
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, sub := range u.Unwrap() {
				walk(sub)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	sort.Ints(failed)
	return failed, len(failed) > 0
}

// Survivors returns nodes minus the failed set, preserving order.
func Survivors(nodes, failed []int) []int {
	dead := map[int]bool{}
	for _, f := range failed {
		dead[f] = true
	}
	out := make([]int, 0, len(nodes))
	for _, n := range nodes {
		if !dead[n] {
			out = append(out, n)
		}
	}
	return out
}
