package recovery

import (
	"fmt"

	"cucc/internal/obs"
)

// Journal event constructors for the recovery path.  The launch loop in
// core owns the recovery workflow but the event vocabulary — what a rank
// loss, restore, or rejoin *means* — belongs to this package, so the
// constructors live here and core records what they build via
// obs.Scope.RecordEvent.  Details are deterministic functions of the run
// (node lists, cursor names, byte counts — never wall-clock times), which
// keeps journal export byte-identical across identical runs.

// RankLossEvent records a classified rank failure.  Node is the lost node
// when exactly one was lost, -1 otherwise (the list is always in Detail).
func RankLossEvent(kernel string, failed, survivors []int) obs.Event {
	rank := -1
	if len(failed) == 1 {
		rank = failed[0]
	}
	return obs.Event{
		Phase:  obs.EvRankLoss,
		Node:   rank,
		Kernel: kernel,
		Detail: fmt.Sprintf("lost nodes %v, %d survivors", failed, len(survivors)),
	}
}

// RestoreEvent records a checkpoint restore ahead of a replay attempt.
func RestoreEvent(kernel string, cp *Checkpoint, survivors int) obs.Event {
	return obs.Event{
		Phase:  obs.EvRestore,
		Node:   -1,
		Kernel: kernel,
		Detail: fmt.Sprintf("restore @%s (%d bytes), replaying over %d ranks", cp.Cursor, cp.Bytes(), survivors),
	}
}

// RejoinEvent records repaired nodes rejoining at full cluster width.
func RejoinEvent(kernel string, repaired []int) obs.Event {
	return obs.Event{
		Phase:  obs.EvRejoin,
		Node:   -1,
		Kernel: kernel,
		Detail: fmt.Sprintf("repaired nodes %v rejoined at full width", repaired),
	}
}

// CheckpointEvent records a barrier checkpoint capture.
func CheckpointEvent(kernel string, cp *Checkpoint) obs.Event {
	return obs.Event{
		Phase:  obs.EvCheckpoint,
		Node:   -1,
		Kernel: kernel,
		Detail: fmt.Sprintf("checkpoint @%s: %d bytes over %d regions", cp.Cursor, cp.Bytes(), len(cp.Regions())),
	}
}
