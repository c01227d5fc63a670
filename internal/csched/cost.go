package csched

import (
	"fmt"
	"strconv"
	"strings"

	"cucc/internal/simnet"
)

// Algo selects which schedule family the runtime uses for phase-2
// Allgathers.
type Algo uint8

const (
	// AlgoDefault is the zero value, "unset": a session that sets no
	// schedule holds it, and Select runs it as AlgoRing.
	AlgoDefault Algo = iota
	// AlgoAuto costs every applicable candidate schedule with the network
	// model and picks the cheapest.
	AlgoAuto
	// AlgoRing forces the flat ring schedule.
	AlgoRing
	// AlgoRecDouble forces recursive doubling (power-of-two rank counts;
	// other sizes fall back to ring).
	AlgoRecDouble
	// AlgoTwoLevel forces the hierarchical two-level ring (composite rank
	// counts; primes fall back to ring).
	AlgoTwoLevel
	// AlgoPipeline forces the chunked-pipelined ring.
	AlgoPipeline
)

func (a Algo) String() string {
	switch a {
	case AlgoDefault:
		return "default"
	case AlgoAuto:
		return "auto"
	case AlgoRing:
		return "ring"
	case AlgoRecDouble:
		return "recdouble"
	case AlgoTwoLevel:
		return "twolevel"
	case AlgoPipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// Choice is the collective-schedule knob carried by cluster.Config and
// core.Session.  The zero value runs the ring schedule without overlap.
type Choice struct {
	// Algo picks the schedule family (AlgoDefault runs the ring).
	Algo Algo
	// Overlap starts phase-3 callback blocks while later Allgather chunks
	// are still in flight, when the kernel's callback blocks don't read
	// gathered data.
	Overlap bool
	// Chunks is the pipelining factor for AlgoPipeline (0 = default 4; at
	// most MaxPipelineChunks).
	Chunks int
}

func (c Choice) String() string {
	s := c.Algo.String()
	if c.Algo == AlgoPipeline && c.Chunks > 0 {
		s += ":" + strconv.Itoa(c.Chunks)
	}
	if c.Overlap {
		s += "+overlap"
	}
	return s
}

// ParseChoice parses the -collective flag syntax:
//
//	"" | "default"          the zero Choice: ring schedule, no overlap
//	"auto"                  cost-based selection
//	"ring"                  force flat ring schedule
//	"recdouble"             force recursive doubling
//	"twolevel"              force hierarchical two-level ring
//	"pipeline" | "pipeline:N"  force chunked-pipelined ring (N chunks/rank,
//	                           1 <= N <= MaxPipelineChunks)
//	"<algo>+overlap"        any of the above plus phase-2/3 overlap
//	"overlap"               shorthand for auto+overlap
func ParseChoice(s string) (Choice, error) {
	var c Choice
	s = strings.TrimSpace(strings.ToLower(s))
	if strings.HasSuffix(s, "+overlap") {
		c.Overlap = true
		s = strings.TrimSuffix(s, "+overlap")
	}
	if name, num, ok := strings.Cut(s, ":"); ok && name == "pipeline" {
		k, err := strconv.Atoi(num)
		if err != nil || k < 1 {
			return Choice{}, fmt.Errorf("csched: bad pipeline chunk count %q", num)
		}
		if k > MaxPipelineChunks {
			return Choice{}, errTooManyChunks(k)
		}
		c.Chunks = k
		s = name
	}
	switch s {
	case "", "default":
		c.Algo = AlgoDefault
	case "auto":
		c.Algo = AlgoAuto
	case "ring":
		c.Algo = AlgoRing
	case "recdouble":
		c.Algo = AlgoRecDouble
	case "twolevel":
		c.Algo = AlgoTwoLevel
	case "pipeline":
		c.Algo = AlgoPipeline
	case "overlap":
		// Bare "overlap": overlap needs a chunked schedule, so auto-select.
		c.Algo, c.Overlap = AlgoAuto, true
	default:
		return Choice{}, fmt.Errorf("csched: unknown collective %q (want default, auto, ring, recdouble, twolevel, pipeline[:N], optionally +overlap)", s)
	}
	return c, nil
}

// EvalResult is the modeled outcome of running one schedule under an
// alpha-beta model.
type EvalResult struct {
	// Algo names the evaluated schedule ("pipeline:4" style for chunked).
	Algo string
	// ChunksPerRank echoes the schedule's pipelining factor.
	ChunksPerRank int
	// CostSec is the modeled makespan: the last rank's completion time.
	CostSec float64
	// FirstRecvSec is the latest time any rank finishes its *first*
	// receive — the earliest point every rank has made progress, which is
	// when overlapped phase-3 execution can start charging compute time.
	// Zero when the schedule has no receives (n == 1).
	FirstRecvSec float64
	// Msgs is the total message count across all ranks.
	Msgs int64
}

// Eval runs the schedule through an event-driven alpha-beta simulation and
// returns its modeled cost.  offs is the per-chunk byte-offset table
// (len NChunks()+1, as SplitOffsets produces).
//
// The machine model matches the closed forms in simnet: a send occupies
// the sender's egress link for bytes*beta and arrives alpha+bytes*beta
// after it starts; a receive completes at max(local time, arrival); a
// copy costs 2*bytes/MemBW.  Per-message CPU overhead is ignored, as the
// RingAllgather/RecursiveDoublingAllgather closed forms ignore it.  The
// ring's Eval matches m.RingAllgather only to float round-off: Eval adds
// the n-1 steps one at a time where the closed form multiplies one step by
// n-1, so the two can differ in the last bits.
func Eval(s *Schedule, offs []int, m simnet.Model) EvalResult {
	res := EvalResult{Algo: s.String(), ChunksPerRank: s.ChunksPerRank}
	n := s.NRanks
	rankTime := make([]float64, n)   // local clock per rank
	egressFree := make([]float64, n) // when the rank's egress link frees up
	firstRecvAt := make([]float64, n)

	type msg struct{ arrival float64 }
	queues := make(map[[2]int][]msg)
	pc := make([]int, n)
	bytesOf := func(st Step) int64 { return int64(offs[st.Hi] - offs[st.Lo]) }

	for {
		progressed := false
		for r := 0; r < n; r++ {
			for pc[r] < len(s.Steps[r]) {
				st := s.Steps[r][pc[r]]
				switch st.Op {
				case OpSend:
					b := bytesOf(st)
					start := rankTime[r]
					if egressFree[r] > start {
						start = egressFree[r]
					}
					egressFree[r] = start + float64(b)*m.BetaSecPerByte
					key := [2]int{r, st.Peer}
					queues[key] = append(queues[key], msg{arrival: start + m.AlphaSec + float64(b)*m.BetaSecPerByte})
					res.Msgs++
				case OpCopy:
					if m.MemBWBytesPerSec > 0 {
						rankTime[r] += 2 * float64(bytesOf(st)) / m.MemBWBytesPerSec
					}
				case OpRecv:
					key := [2]int{st.Peer, r}
					q := queues[key]
					if len(q) == 0 {
						goto nextRank
					}
					queues[key] = q[1:]
					if q[0].arrival > rankTime[r] {
						rankTime[r] = q[0].arrival
					}
					if firstRecvAt[r] == 0 {
						firstRecvAt[r] = rankTime[r]
					}
				}
				pc[r]++
				progressed = true
			}
		nextRank:
		}
		done := true
		for r := 0; r < n; r++ {
			if pc[r] < len(s.Steps[r]) {
				done = false
			}
		}
		if done || !progressed {
			// Deadlocked schedules never reach Eval (Verify gates the
			// cache), but bail rather than spin if one does.
			break
		}
	}
	for r := 0; r < n; r++ {
		if rankTime[r] > res.CostSec {
			res.CostSec = rankTime[r]
		}
		if firstRecvAt[r] > res.FirstRecvSec {
			res.FirstRecvSec = firstRecvAt[r]
		}
	}
	return res
}

// Request describes one phase-2 Allgather for schedule selection.
type Request struct {
	// Ranks is the cluster size.
	Ranks int
	// RankBytes is each rank's contribution size in bytes (len Ranks).
	RankBytes []int64
	// Model is the network cost model.
	Model simnet.Model
	// Choice is the configured knob.
	Choice Choice
	// CallbackSec is the modeled phase-3 compute time that could overlap
	// with the collective's tail; > 0 with Choice.Overlap biases selection
	// toward schedules whose first chunk lands early.
	CallbackSec float64
}

// offsets builds the per-rank byte table from RankBytes.
func (rq *Request) offsets() []int {
	offs := make([]int, rq.Ranks+1)
	for r := 0; r < rq.Ranks; r++ {
		offs[r+1] = offs[r] + int(rq.RankBytes[r])
	}
	return offs
}

// Selection is a chosen, verified, costed schedule ready to execute.
type Selection struct {
	Schedule *Schedule
	// Offs is the per-chunk byte-offset table matching the schedule's
	// chunking (len Schedule.NChunks()+1).
	Offs []int
	Eval EvalResult
}

// defaultPipelineChunks is the chunking factor when the knob doesn't pin
// one: enough to expose early progress without drowning in alpha.
const defaultPipelineChunks = 4

// MaxPipelineChunks bounds a pinned pipeline chunk count.  The count is
// tenant input (a cuccd job's collective), and every (algo, ranks, chunks)
// schedule stays cached for the life of the process, so an unbounded count
// lets one job allocate gigabytes.  Auto selection tries 2, 4 and 8.
const MaxPipelineChunks = 64

func errTooManyChunks(k int) error {
	return fmt.Errorf("csched: pipeline chunk count %d exceeds the bound %d", k, MaxPipelineChunks)
}

// Select compiles the candidate schedules the Choice allows, costs each
// under the model, and returns the winner.  Forced algorithms that don't
// apply to the rank count (recdouble on non-power-of-two, twolevel on
// primes) fall back to the flat ring, as does the unset AlgoDefault.  Ties
// break toward fewer messages, then toward generation order (ring first),
// keeping selection deterministic.
func Select(rq Request) (*Selection, error) {
	if rq.Ranks < 1 {
		return nil, fmt.Errorf("csched: select with %d ranks", rq.Ranks)
	}
	if len(rq.RankBytes) != rq.Ranks {
		return nil, fmt.Errorf("csched: have %d rank sizes, want %d", len(rq.RankBytes), rq.Ranks)
	}
	type cand struct {
		algo string
		k    int
	}
	n := rq.Ranks
	pow2 := n >= 2 && n&(n-1) == 0
	composite := GenTwoLevel(n) != nil
	pipeK := rq.Choice.Chunks
	if pipeK > MaxPipelineChunks {
		return nil, errTooManyChunks(pipeK)
	}
	if pipeK < 1 {
		pipeK = defaultPipelineChunks
	}
	var cands []cand
	switch rq.Choice.Algo {
	case AlgoDefault, AlgoRing:
		cands = []cand{{"ring", 1}}
	case AlgoRecDouble:
		if pow2 {
			cands = []cand{{"recdouble", 1}}
		} else {
			cands = []cand{{"ring", 1}}
		}
	case AlgoTwoLevel:
		if composite {
			cands = []cand{{"twolevel", 1}}
		} else {
			cands = []cand{{"ring", 1}}
		}
	case AlgoPipeline:
		cands = []cand{{"pipeline", pipeK}}
	case AlgoAuto:
		cands = []cand{{"ring", 1}}
		if pow2 {
			cands = append(cands, cand{"recdouble", 1})
		}
		if composite {
			cands = append(cands, cand{"twolevel", 1})
		}
		if rq.Choice.Chunks > 0 {
			cands = append(cands, cand{"pipeline", rq.Choice.Chunks})
		} else {
			for _, k := range []int{2, 4, 8} {
				cands = append(cands, cand{"pipeline", k})
			}
		}
	default:
		return nil, fmt.Errorf("csched: select with unknown algorithm %s", rq.Choice.Algo)
	}

	rankOffs := rq.offsets()
	var best *Selection
	var bestScore float64
	for _, cd := range cands {
		if n == 1 {
			// Single rank: every algorithm is the empty schedule.
			cd = cand{"ring", 1}
		}
		s, err := generate(cd.algo, n, cd.k)
		if err != nil {
			return nil, err
		}
		offs := SplitOffsets(rankOffs, s.ChunksPerRank)
		ev := Eval(s, offs, rq.Model)
		// Score: plain makespan, or — when overlap is on and phase 3 has
		// work to hide — the modeled end of the overlapped region: compute
		// can start once every rank got its first chunk, so the launch
		// finishes at firstRecv + max(remaining comm, callback compute).
		score := ev.CostSec
		if rq.Choice.Overlap && rq.CallbackSec > 0 {
			tail := ev.CostSec - ev.FirstRecvSec
			if rq.CallbackSec > tail {
				tail = rq.CallbackSec
			}
			score = ev.FirstRecvSec + tail
		}
		if best == nil || score < bestScore-1e-15 ||
			(score < bestScore+1e-15 && ev.Msgs < best.Eval.Msgs) {
			best = &Selection{Schedule: s, Offs: offs, Eval: ev}
			bestScore = score
		}
	}
	return best, nil
}
