package csched

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cucc/internal/comm"
	"cucc/internal/metrics"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// runSchedule executes s on every rank of net concurrently, each starting
// from its own copy of the pre-gather buffer, and returns the per-rank
// final buffers and stats.
func runSchedule(t *testing.T, net transport.Network, s *Schedule, offs []int, seed func(rank int) []byte) ([][]byte, []comm.Stats) {
	t.Helper()
	return runScheduleArenas(t, net, s, offs, seed, nil)
}

// runScheduleArenas is runSchedule with rank r copying its sends out of
// arenas[r] through ExecuteArena; nil arenas runs Execute.
func runScheduleArenas(t *testing.T, net transport.Network, s *Schedule, offs []int, seed func(rank int) []byte, arenas [][]byte) ([][]byte, []comm.Stats) {
	t.Helper()
	n := net.Size()
	bufs := make([][]byte, n)
	stats := make([]comm.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		bufs[r] = seed(r)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if arenas == nil {
				stats[r], errs[r] = Execute(net.Conn(r), bufs[r], offs, s)
			} else {
				stats[r], errs[r] = ExecuteArena(net.Conn(r), bufs[r], offs, s, arenas[r])
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return bufs, stats
}

// fill produces the canonical test pattern: chunk owned by rank r holds
// bytes derived from (r, position).
func fill(rankOffs []int, r int) []byte {
	buf := make([]byte, rankOffs[len(rankOffs)-1])
	for i := rankOffs[r]; i < rankOffs[r+1]; i++ {
		buf[i] = byte(137*r + 31*i + 7)
	}
	return buf
}

// uniformOffsets builds the per-rank offset table of a balanced Allgather
// (every rank contributes chunkBytes).
func uniformOffsets(n int, chunkBytes int) []int {
	offs := make([]int, n+1)
	for r := 0; r <= n; r++ {
		offs[r] = r * chunkBytes
	}
	return offs
}

// reference computes the expected post-Allgather buffer.
func reference(rankOffs []int, n int) []byte {
	buf := make([]byte, rankOffs[n])
	for r := 0; r < n; r++ {
		for i := rankOffs[r]; i < rankOffs[r+1]; i++ {
			buf[i] = byte(137*r + 31*i + 7)
		}
	}
	return buf
}

// TestExecuteMatchesReference: every generated schedule gathers exactly
// the concatenation of the ranks' chunks, for balanced and imbalanced
// contributions, including empty chunks, and sends as many messages as
// Eval prices.
func TestExecuteMatchesReference(t *testing.T) {
	type gen struct {
		name  string
		build func(n int) *Schedule
	}
	gens := []gen{
		{"ring", func(n int) *Schedule { return GenRing(n, 1) }},
		{"pipeline2", func(n int) *Schedule { return GenRing(n, 2) }},
		{"pipeline4", func(n int) *Schedule { return GenRing(n, 4) }},
		{"recdouble", GenRecDouble},
		{"twolevel", GenTwoLevel},
	}
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		// Balanced and imbalanced (incl. an empty chunk) offset tables.
		tables := map[string][]int{
			"balanced": uniformOffsets(n, 64),
		}
		imb := make([]int, n+1)
		for r := 0; r < n; r++ {
			imb[r+1] = imb[r] + (r%3)*37 // rank 0 (and 3, 6...) contributes 0 bytes
		}
		tables["imbalanced"] = imb
		for _, g := range gens {
			s := g.build(n)
			if s == nil {
				continue
			}
			for tname, rankOffs := range tables {
				t.Run(fmt.Sprintf("%s/n=%d/%s", g.name, n, tname), func(t *testing.T) {
					net := transport.NewInproc(n)
					defer net.Close()
					offs := SplitOffsets(rankOffs, s.ChunksPerRank)
					want := reference(rankOffs, n)
					bufs, stats := runSchedule(t, net, s, offs, func(r int) []byte { return fill(rankOffs, r) })
					for r := 0; r < n; r++ {
						if !bytes.Equal(bufs[r], want) {
							t.Errorf("rank %d buffer differs from reference", r)
						}
					}
					// Symmetric accounting: summed over ranks, sends == recvs.
					var total comm.Stats
					for _, st := range stats {
						total.Add(st)
					}
					if total.Msgs != total.Recvs || total.BytesSent != total.BytesRecvd {
						t.Errorf("asymmetric stats: %+v", total)
					}
					// The simulated clock prices exactly the messages sent.
					if ev := Eval(s, offs, simnet.IB100()); total.Msgs != ev.Msgs {
						t.Errorf("measured %d msgs, Eval models %d", total.Msgs, ev.Msgs)
					}
				})
			}
		}
	}
}

// TestExecuteUnderBenignFaults: delayed and duplicated messages are
// absorbed by the transport envelope; results stay bitwise identical.
func TestExecuteUnderBenignFaults(t *testing.T) {
	for _, n := range []int{3, 4, 8} {
		for _, g := range []func(int) *Schedule{
			func(n int) *Schedule { return GenRing(n, 1) },
			func(n int) *Schedule { return GenRing(n, 4) },
			GenRecDouble,
			GenTwoLevel,
		} {
			s := g(n)
			if s == nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", s, n), func(t *testing.T) {
				net := transport.NewFaulty(transport.NewInproc(n), transport.FaultConfig{
					Seed: 1, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond,
				})
				defer net.Close()
				rankOffs := uniformOffsets(n, 96)
				offs := SplitOffsets(rankOffs, s.ChunksPerRank)
				want := reference(rankOffs, n)
				bufs, _ := runSchedule(t, net, s, offs, func(r int) []byte { return fill(rankOffs, r) })
				for r := 0; r < n; r++ {
					if !bytes.Equal(bufs[r], want) {
						t.Errorf("rank %d buffer differs under benign faults", r)
					}
				}
			})
		}
	}
}

// TestExecuteRingOverTransports: the ring schedule, which every launch that
// sets no collective runs, gathers bitwise over the in-process transport
// (where a forwarded slice is shared by every rank downstream), TCP, and a
// fault layer that delays and duplicates frames — balanced and ragged, one
// rank contributing nothing.
func TestExecuteRingOverTransports(t *testing.T) {
	nets := []struct {
		name string
		mk   func(n int) (transport.Network, error)
	}{
		{"inproc", func(n int) (transport.Network, error) { return transport.NewInproc(n), nil }},
		{"tcp", func(n int) (transport.Network, error) { return transport.NewTCP(n) }},
		{"faulty", func(n int) (transport.Network, error) {
			return transport.NewFaulty(transport.NewInproc(n), transport.FaultConfig{
				Seed: 1, Delay: 0.3, Duplicate: 0.3, MaxDelay: 200 * time.Microsecond}), nil
		}},
	}
	for _, nw := range nets {
		for _, n := range []int{2, 3, 5, 8} {
			for _, ragged := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/ragged=%v", nw.name, n, ragged), func(t *testing.T) {
					rankOffs := uniformOffsets(n, 96)
					if ragged {
						for r := 0; r < n; r++ {
							rankOffs[r+1] = rankOffs[r] + (r*37)%101 // rank 0 contributes nothing
						}
					}
					net, err := nw.mk(n)
					if err != nil {
						t.Fatal(err)
					}
					defer net.Close()
					want := reference(rankOffs, n)
					bufs, _ := runSchedule(t, net, GenRing(n, 1), rankOffs, func(r int) []byte { return fill(rankOffs, r) })
					for r := 0; r < n; r++ {
						if !bytes.Equal(bufs[r], want) {
							t.Errorf("rank %d buffer differs from the concatenation of the chunks", r)
						}
					}
				})
			}
		}
	}
}

// TestExecuteMetrics: on a metered transport the executor records
// comm.sched_<algo>.* counters equal to the summed per-rank stats, so the
// registry cross-check invariant (comm.* == transport.*) holds for
// schedules too.
func TestExecuteMetrics(t *testing.T) {
	const n = 4
	reg := metrics.New()
	net := transport.NewMetered(transport.NewInproc(n), reg)
	defer net.Close()
	s := GenRing(n, 2)
	rankOffs := uniformOffsets(n, 128)
	offs := SplitOffsets(rankOffs, 2)
	_, stats := runSchedule(t, net, s, offs, func(r int) []byte { return fill(rankOffs, r) })
	var total comm.Stats
	for _, st := range stats {
		total.Add(st)
	}
	snap := reg.Snapshot()
	for _, check := range []struct {
		name string
		want int64
	}{
		{"comm.sched_pipeline.calls", n},
		{"comm.sched_pipeline.msgs", total.Msgs},
		{"comm.sched_pipeline.bytes_sent", total.BytesSent},
		{"comm.sched_pipeline.recvs", total.Recvs},
		{"comm.sched_pipeline.bytes_recvd", total.BytesRecvd},
	} {
		if got := snap.Counters[check.name]; got != check.want {
			t.Errorf("%s = %d, want %d", check.name, got, check.want)
		}
	}
}

// TestExecuteValidation: malformed inputs fail cleanly before any traffic.
func TestExecuteValidation(t *testing.T) {
	net := transport.NewInproc(2)
	defer net.Close()
	s := GenRing(2, 1)
	good := uniformOffsets(2, 8)
	buf := make([]byte, 16)
	if _, err := Execute(net.Conn(0), buf, good[:2], s); err == nil {
		t.Error("short offset table accepted")
	}
	if _, err := Execute(net.Conn(0), buf, []int{-1, 8, 16}, s); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := Execute(net.Conn(0), buf, []int{0, 12, 8}, s); err == nil {
		t.Error("non-monotonic offsets accepted")
	}
	if _, err := Execute(net.Conn(0), buf, []int{0, 16, 32}, s); err == nil {
		t.Error("offsets past buffer end accepted")
	}
	if _, err := Execute(net.Conn(0), buf, good, GenRing(4, 1)); err == nil {
		t.Error("rank-count mismatch accepted")
	}
}

// TestExecuteForwardsReceivedSlice: a send of exactly the range the rank just
// received passes on the slice Recv returned; any other send — a second one of
// the same range included — copies out of the buffer.  The ring's steady state
// is all forwards, so a rank allocates its own chunk and little else.
func TestExecuteForwardsReceivedSlice(t *testing.T) {
	// Rank 0's chunk fans out through rank 1: its first send forwards, its
	// second must copy, and both receivers get the same bytes.
	fan := &Schedule{Algo: "fan", NRanks: 4, ChunksPerRank: 1, Steps: [][]Step{
		{{Op: OpSend, Peer: 1, Lo: 0, Hi: 1}},
		{{Op: OpRecv, Peer: 0, Lo: 0, Hi: 1}, {Op: OpSend, Peer: 2, Lo: 0, Hi: 1}, {Op: OpSend, Peer: 3, Lo: 0, Hi: 1}},
		{{Op: OpRecv, Peer: 1, Lo: 0, Hi: 1}},
		{{Op: OpRecv, Peer: 1, Lo: 0, Hi: 1}},
	}}
	rankOffs := uniformOffsets(4, 48)
	net := transport.NewInproc(4)
	defer net.Close()
	bufs, stats := runSchedule(t, net, fan, rankOffs, func(r int) []byte { return fill(rankOffs, r) })
	want := fill(rankOffs, 0)[:48]
	for r := 1; r < 4; r++ {
		if !bytes.Equal(bufs[r][:48], want) {
			t.Errorf("rank %d did not receive rank 0's chunk", r)
		}
	}
	if stats[1].Msgs != 2 || stats[1].BytesSent != 96 {
		t.Errorf("rank 1 sent %d msgs / %d bytes, want 2 / 96", stats[1].Msgs, stats[1].BytesSent)
	}

	const n, chunk, calls = 8, 64 << 10, 10
	ring := GenRing(n, 1)
	offs := uniformOffsets(n, chunk)
	rnet := transport.NewInproc(n)
	defer rnet.Close()
	seeds := make([][]byte, n)
	for r := range seeds {
		seeds[r] = make([]byte, n*chunk)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		runSchedule(t, rnet, ring, offs, func(r int) []byte { return seeds[r] })
	}
	runtime.ReadMemStats(&after)
	if perRank := (after.TotalAlloc - before.TotalAlloc) / (calls * n); perRank > chunk+chunk/8 {
		t.Errorf("ring schedule: %d bytes allocated per rank per call, want one %d-byte chunk and a small constant", perRank, chunk)
	}
}

// dirtyArenas lends each rank of s an arena of exactly the size its program
// needs over offs, filled with 0xA5 as a recycled slab might be.
func dirtyArenas(s *Schedule, offs []int) [][]byte {
	arenas := make([][]byte, s.NRanks)
	for r := range arenas {
		arenas[r] = bytes.Repeat([]byte{0xA5}, s.ArenaLen(r, offs))
	}
	return arenas
}

// TestExecuteArenaDirtyMatchesExecute: an arena's contents on loan are
// arbitrary, because every byte a rank sends is written first.  A lent arena
// full of 0xA5 must leave every buffer and every rank's Stats exactly as
// Execute's fresh one does, on every generated schedule, balanced and
// imbalanced.
func TestExecuteArenaDirtyMatchesExecute(t *testing.T) {
	gens := []struct {
		name  string
		build func(n int) *Schedule
	}{
		{"ring", func(n int) *Schedule { return GenRing(n, 1) }},
		{"recdouble", GenRecDouble},
		{"twolevel", GenTwoLevel},
		{"pipeline2", func(n int) *Schedule { return GenRing(n, 2) }},
		{"pipeline4", func(n int) *Schedule { return GenRing(n, 4) }},
		{"pipeline8", func(n int) *Schedule { return GenRing(n, 8) }},
	}
	for _, n := range []int{2, 8} {
		imb := make([]int, n+1)
		for r := 0; r < n; r++ {
			imb[r+1] = imb[r] + 40 + (r%3)*37
		}
		for _, g := range gens {
			s := g.build(n)
			if s == nil {
				continue
			}
			for tname, rankOffs := range map[string][]int{"balanced": uniformOffsets(n, 96), "imbalanced": imb} {
				t.Run(fmt.Sprintf("%s/n=%d/%s", g.name, n, tname), func(t *testing.T) {
					offs := SplitOffsets(rankOffs, s.ChunksPerRank)
					seed := func(r int) []byte { return fill(rankOffs, r) }
					fresh := transport.NewInproc(n)
					defer fresh.Close()
					want, wantStats := runSchedule(t, fresh, s, offs, seed)
					lent := transport.NewInproc(n)
					defer lent.Close()
					arenas := dirtyArenas(s, offs)
					got, gotStats := runScheduleArenas(t, lent, s, offs, seed, arenas)
					for r := 0; r < n; r++ {
						if !bytes.Equal(got[r], want[r]) {
							t.Errorf("rank %d: buffer over a dirty arena differs from Execute's", r)
						}
						if gotStats[r] != wantStats[r] {
							t.Errorf("rank %d: stats %+v over a dirty arena, Execute %+v", r, gotStats[r], wantStats[r])
						}
					}
				})
			}
		}
	}
}

// TestExecuteArenaTooShort: an arena shorter than the rank's program needs
// fails the call before anything is sent.
func TestExecuteArenaTooShort(t *testing.T) {
	s := GenRing(2, 1)
	offs := uniformOffsets(2, 16)
	net := transport.NewInproc(2)
	defer net.Close()
	if _, err := ExecuteArena(net.Conn(0), make([]byte, 32), offs, s, make([]byte, 15)); err == nil {
		t.Fatal("a 15-byte arena for a 16-byte send must be rejected")
	}
}

// TestExecuteArenaRingAllocatesNoChunk: with the arena lent and reused
// across calls, the ring's steady state allocates nothing the size of a
// chunk: what Execute spends on its own chunk is gone.
func TestExecuteArenaRingAllocatesNoChunk(t *testing.T) {
	const n, chunk, calls = 8, 64 << 10, 10
	ring := GenRing(n, 1)
	offs := uniformOffsets(n, chunk)
	net := transport.NewInproc(n)
	defer net.Close()
	seeds := make([][]byte, n)
	for r := range seeds {
		seeds[r] = make([]byte, n*chunk)
	}
	arenas := dirtyArenas(ring, offs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		runScheduleArenas(t, net, ring, offs, func(r int) []byte { return seeds[r] }, arenas)
	}
	runtime.ReadMemStats(&after)
	if perRank := (after.TotalAlloc - before.TotalAlloc) / (calls * n); perRank >= chunk/8 {
		t.Errorf("ring over a lent arena: %d bytes allocated per rank per call, want under %d", perRank, chunk/8)
	}
}
