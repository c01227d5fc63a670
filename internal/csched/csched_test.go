package csched

import (
	"math"
	"testing"

	"cucc/internal/simnet"
)

// TestGeneratorsVerify: every generator yields a Verify-clean schedule for
// every rank count it claims to support.
func TestGeneratorsVerify(t *testing.T) {
	for n := 1; n <= 17; n++ {
		for _, k := range []int{1, 2, 3, 4, 8} {
			s := GenRing(n, k)
			if err := Verify(s); err != nil {
				t.Errorf("ring n=%d k=%d: %v", n, k, err)
			}
		}
		if s := GenRecDouble(n); s != nil {
			if n&(n-1) != 0 {
				t.Errorf("recdouble accepted non-power-of-two n=%d", n)
			}
			if err := Verify(s); err != nil {
				t.Errorf("recdouble n=%d: %v", n, err)
			}
		} else if n >= 2 && n&(n-1) == 0 {
			t.Errorf("recdouble rejected power-of-two n=%d", n)
		}
		if s := GenTwoLevel(n); s != nil {
			if err := Verify(s); err != nil {
				t.Errorf("twolevel n=%d: %v", n, err)
			}
		} else if n == 4 || n == 6 || n == 8 || n == 9 || n == 12 || n == 16 {
			t.Errorf("twolevel rejected composite n=%d", n)
		}
	}
}

// TestVerifyCatchesBugs: Verify rejects the classic schedule bugs —
// sending unowned data, mismatched ranges, deadlock, incompleteness.
func TestVerifyCatchesBugs(t *testing.T) {
	// Send before owning: rank 0 sends chunk 1 (owned by rank 1).
	bad := GenRing(2, 1)
	bad.Steps[0][0].Lo, bad.Steps[0][0].Hi = 1, 2
	if err := Verify(bad); err == nil {
		t.Error("Verify accepted a send of an unowned chunk")
	}

	// Range mismatch: the recv expects a different chunk than in flight.
	bad = GenRing(2, 1)
	bad.Steps[0][1].Lo, bad.Steps[0][1].Hi = 0, 1
	if err := Verify(bad); err == nil {
		t.Error("Verify accepted a recv range mismatching the send")
	}

	// Deadlock: both ranks recv first.
	bad = GenRing(2, 1)
	for r := 0; r < 2; r++ {
		bad.Steps[r][0], bad.Steps[r][1] = bad.Steps[r][1], bad.Steps[r][0]
	}
	if err := Verify(bad); err == nil {
		t.Error("Verify accepted a recv-first deadlock")
	}

	// Incomplete: drop rank 1's program entirely.
	bad = GenRing(3, 1)
	bad.Steps[1] = nil
	if err := Verify(bad); err == nil {
		t.Error("Verify accepted an incomplete schedule")
	}
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestEvalMatchesClosedForms: the event-driven evaluator reproduces
// simnet's closed-form collective costs to float round-off.
func TestEvalMatchesClosedForms(t *testing.T) {
	m := simnet.IB100()
	const chunk = 1 << 20
	for _, n := range []int{2, 3, 4, 5, 8, 12, 16} {
		offs := uniformOffsets(n, chunk)

		// Flat ring: (n-1)(alpha + B*beta).
		ring := GenRing(n, 1)
		ev := Eval(ring, offs, m)
		if want := m.RingAllgather(n, chunk); !approxEq(ev.CostSec, want) {
			t.Errorf("ring n=%d: Eval %.12g, closed form %.12g", n, ev.CostSec, want)
		}
		if want := int64(n * (n - 1)); ev.Msgs != want {
			t.Errorf("ring n=%d: %d msgs, want %d", n, ev.Msgs, want)
		}
		// First receive completes after exactly one step on every rank.
		if want := m.AlphaSec + float64(chunk)*m.BetaSecPerByte; !approxEq(ev.FirstRecvSec, want) {
			t.Errorf("ring n=%d: FirstRecvSec %.12g, want %.12g", n, ev.FirstRecvSec, want)
		}

		// Pipelined ring: k(n-1) alpha + ((k(n-1)+k-1)/k) B*beta per the
		// pipeline fill/drain; just check the structural properties — cost
		// strictly gains alpha terms but FirstRecv shrinks.
		for _, k := range []int{2, 4} {
			p := GenRing(n, k)
			pev := Eval(p, SplitOffsets(offs, k), m)
			if pev.CostSec <= ev.CostSec {
				t.Errorf("pipeline n=%d k=%d: cost %.12g not above flat ring %.12g (alpha must add up)",
					n, k, pev.CostSec, ev.CostSec)
			}
			if pev.FirstRecvSec >= ev.FirstRecvSec {
				t.Errorf("pipeline n=%d k=%d: FirstRecvSec %.12g not below flat ring %.12g",
					n, k, pev.FirstRecvSec, ev.FirstRecvSec)
			}
			if want := int64(k * n * (n - 1)); pev.Msgs != want {
				t.Errorf("pipeline n=%d k=%d: %d msgs, want %d", n, k, pev.Msgs, want)
			}
		}

		// Recursive doubling on powers of two: sum over rounds of
		// (alpha + 2^s B beta).
		if n&(n-1) == 0 {
			rd := GenRecDouble(n)
			rev := Eval(rd, offs, m)
			if want := m.RecursiveDoublingAllgather(n, chunk); !approxEq(rev.CostSec, want) {
				t.Errorf("recdouble n=%d: Eval %.12g, closed form %.12g", n, rev.CostSec, want)
			}
			logn := 0
			for s := 1; s < n; s *= 2 {
				logn++
			}
			if want := int64(n * logn); rev.Msgs != want {
				t.Errorf("recdouble n=%d: %d msgs, want %d", n, rev.Msgs, want)
			}
		}

		// Two-level on composites: (g+h-2) alpha + (n-1) B beta.
		if tl := GenTwoLevel(n); tl != nil {
			tev := Eval(tl, offs, m)
			h := largestFactor(n)
			g := n / h
			want := float64(g+h-2)*m.AlphaSec + float64(int64(n-1)*chunk)*m.BetaSecPerByte
			if !approxEq(tev.CostSec, want) {
				t.Errorf("twolevel n=%d (g=%d,h=%d): Eval %.12g, closed form %.12g", n, g, h, tev.CostSec, want)
			}
		}
	}
}

// TestSelectPicksCheapest: auto selection prefers the fewer-alpha
// algorithms where they apply, and forced choices fall back to ring when
// inapplicable.
func TestSelectPicksCheapest(t *testing.T) {
	m := simnet.IB100()
	bytesOf := func(n int, b int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = b
		}
		return out
	}

	// Tiny messages, large pow2 rank count: recursive doubling's log2(n)
	// alpha terms beat the ring's n-1.
	sel, err := Select(Request{Ranks: 16, RankBytes: bytesOf(16, 8), Model: m, Choice: Choice{Algo: AlgoAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.Algo != "recdouble" {
		t.Errorf("auto on n=16, 8B chose %s, want recdouble", sel.Schedule)
	}

	// Composite non-pow2 rank count, tiny messages: two-level's
	// (g+h-2) alpha beats the flat ring's (n-1) alpha.
	sel, err = Select(Request{Ranks: 12, RankBytes: bytesOf(12, 8), Model: m, Choice: Choice{Algo: AlgoAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.Algo != "twolevel" {
		t.Errorf("auto on n=12, 8B chose %s, want twolevel", sel.Schedule)
	}

	// Large messages on a prime rank count: bandwidth-bound, the flat ring
	// (optimal (n-1)B beta, minimal alpha among bandwidth-optimal) wins.
	sel, err = Select(Request{Ranks: 5, RankBytes: bytesOf(5, 1<<24), Model: m, Choice: Choice{Algo: AlgoAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.Algo != "ring" {
		t.Errorf("auto on n=5, 16MB chose %s, want ring", sel.Schedule)
	}

	// Overlap bias: with callback work to hide, auto prefers a chunked
	// schedule whose first chunk lands early even though its raw makespan
	// is higher.
	rq := Request{Ranks: 5, RankBytes: bytesOf(5, 1<<24), Model: m,
		Choice: Choice{Algo: AlgoAuto, Overlap: true}}
	rq.CallbackSec = Eval(GenRing(5, 1), SplitOffsets(rq.offsets(), 1), m).CostSec // plenty to hide
	sel, err = Select(rq)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.ChunksPerRank <= 1 {
		t.Errorf("auto+overlap with large callbacks chose %s, want a chunked schedule", sel.Schedule)
	}

	// The zero Choice runs the ring, with or without overlap.
	for _, c := range []Choice{{}, {Overlap: true}} {
		sel, err = Select(Request{Ranks: 8, RankBytes: bytesOf(8, 8), Model: m, Choice: c, CallbackSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Schedule.String() != "ring" {
			t.Errorf("choice %s on n=8 gave %s, want ring", c, sel.Schedule)
		}
	}

	// Forced recdouble on non-pow2 falls back to ring.
	sel, err = Select(Request{Ranks: 6, RankBytes: bytesOf(6, 1024), Model: m, Choice: Choice{Algo: AlgoRecDouble}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.Algo != "ring" {
		t.Errorf("forced recdouble on n=6 gave %s, want ring fallback", sel.Schedule)
	}

	// Forced twolevel on a prime falls back to ring.
	sel, err = Select(Request{Ranks: 7, RankBytes: bytesOf(7, 1024), Model: m, Choice: Choice{Algo: AlgoTwoLevel}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.Algo != "ring" {
		t.Errorf("forced twolevel on n=7 gave %s, want ring fallback", sel.Schedule)
	}

	// Forced pipeline honors the chunk count.
	sel, err = Select(Request{Ranks: 4, RankBytes: bytesOf(4, 4096), Model: m,
		Choice: Choice{Algo: AlgoPipeline, Chunks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schedule.Algo != "pipeline" || sel.Schedule.ChunksPerRank != 3 {
		t.Errorf("forced pipeline:3 gave %s", sel.Schedule)
	}

	// Single rank degenerates to the empty ring for any choice.
	sel, err = Select(Request{Ranks: 1, RankBytes: bytesOf(1, 4096), Model: m, Choice: Choice{Algo: AlgoRecDouble}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Schedule.Steps[0]) != 0 {
		t.Errorf("n=1 schedule has %d steps, want 0", len(sel.Schedule.Steps[0]))
	}
}

// TestSplitOffsets: rank spans split into k near-equal contiguous
// sub-spans covering exactly the original range.
func TestSplitOffsets(t *testing.T) {
	rankOffs := []int{0, 10, 17, 17, 30}
	for _, k := range []int{1, 2, 3, 4, 7} {
		offs := SplitOffsets(rankOffs, k)
		if len(offs) != 4*k+1 {
			t.Fatalf("k=%d: %d offsets, want %d", k, len(offs), 4*k+1)
		}
		for r := 0; r < 4; r++ {
			if offs[r*k] != rankOffs[r] {
				t.Errorf("k=%d: rank %d starts at %d, want %d", k, r, offs[r*k], rankOffs[r])
			}
			span := rankOffs[r+1] - rankOffs[r]
			for j := 0; j < k; j++ {
				sub := offs[r*k+j+1] - offs[r*k+j]
				if sub < span/k || sub > span/k+1 {
					t.Errorf("k=%d: rank %d sub-chunk %d has %d bytes (span %d)", k, r, j, sub, span)
				}
			}
		}
		if offs[4*k] != rankOffs[4] {
			t.Errorf("k=%d: table ends at %d, want %d", k, offs[4*k], rankOffs[4])
		}
	}
}

// TestParseChoice covers the -collective flag grammar.
func TestParseChoice(t *testing.T) {
	cases := []struct {
		in   string
		want Choice
		err  bool
	}{
		{"", Choice{}, false},
		{"default", Choice{}, false},
		{"auto", Choice{Algo: AlgoAuto}, false},
		{"ring", Choice{Algo: AlgoRing}, false},
		{"recdouble", Choice{Algo: AlgoRecDouble}, false},
		{"twolevel", Choice{Algo: AlgoTwoLevel}, false},
		{"pipeline", Choice{Algo: AlgoPipeline}, false},
		{"pipeline:8", Choice{Algo: AlgoPipeline, Chunks: 8}, false},
		{"ring+overlap", Choice{Algo: AlgoRing, Overlap: true}, false},
		{"overlap", Choice{Algo: AlgoAuto, Overlap: true}, false},
		{"default+overlap", Choice{Overlap: true}, false},
		{"+overlap", Choice{Overlap: true}, false},
		{"AUTO", Choice{Algo: AlgoAuto}, false},
		{"pipeline:0", Choice{}, true},
		{"pipeline:x", Choice{}, true},
		{"bogus", Choice{}, true},
	}
	for _, tc := range cases {
		got, err := ParseChoice(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseChoice(%q) accepted, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseChoice(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseChoice(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	// Round trip: String output re-parses to the same choice.
	for _, c := range []Choice{{}, {Overlap: true}, {Algo: AlgoAuto}, {Algo: AlgoPipeline, Chunks: 8}, {Algo: AlgoTwoLevel, Overlap: true}} {
		back, err := ParseChoice(c.String())
		if err != nil || back != c {
			t.Errorf("round trip %+v -> %q -> %+v (%v)", c, c.String(), back, err)
		}
	}
}
