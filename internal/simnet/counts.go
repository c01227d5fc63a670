package simnet

import "math/bits"

// Closed-form total message counts, summed over all ranks, for the
// collectives internal/comm still implements.  They exist so the measured
// comm.Stats.Msgs can be cross-checked against the algorithm the cost
// model assumes (the conformance test in internal/comm).  Counts are pure
// functions of the rank count: the alpha-beta parameters price messages,
// they never change how many there are.

// RingAllgatherMsgs: n-1 steps, one send per rank per step.
func RingAllgatherMsgs(nodes int) int64 {
	if nodes <= 1 {
		return 0
	}
	return int64(nodes) * int64(nodes-1)
}

// BarrierMsgs: dissemination barrier, ceil(log2 n) rounds, one empty
// message per rank per round.
func BarrierMsgs(nodes int) int64 {
	if nodes <= 1 {
		return 0
	}
	return int64(nodes) * int64(bits.Len(uint(nodes-1)))
}
