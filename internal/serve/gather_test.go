package serve

import (
	"runtime"
	"testing"
)

// gatherJobs are the two Transpose job shapes of the gather workload: 1 MiB
// gathered in place over 8 and over 2 nodes, with the server's default
// recovery policy, so every job also takes the start checkpoint.
var gatherJobs = []struct {
	name  string
	nodes int
}{{"n8", 8}, {"n2", 2}}

// submitGather runs one gather job through srv and fails tb unless it
// completed.
func submitGather(tb testing.TB, srv *Server, nodes int) {
	if resp := srv.Submit(&Request{Tenant: "g", Program: "Transpose", Nodes: nodes}); resp.Status != StatusOK {
		tb.Fatalf("Transpose on %d nodes: %s %s", nodes, resp.Status, resp.Err)
	}
}

// BenchmarkGatherJob sizes one gather job end to end through Server.Submit
// on one executor: cluster build, buffer fill, checkpoint, both phases, the
// in-place Allgather and the output check.
func BenchmarkGatherJob(b *testing.B) {
	for _, gj := range gatherJobs {
		b.Run(gj.name, func(b *testing.B) {
			srv := NewServer(Config{Executors: 1, Workers: 1})
			defer srv.Drain()
			submitGather(b, srv, gj.nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitGather(b, srv, gj.nodes)
			}
		})
	}
}

// TestGatherJobAllocBudget pins what a gather job allocates once the slab
// free list is warm: at most 256 KiB per job on average.  The job's heaps
// are recycled slabs, its start checkpoint keeps no copy of the all-zero
// output, and its send arenas are lent from the free list, so the 1 MiB
// output is never allocated or copied for bookkeeping.
func TestGatherJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so recycled slabs are allocated afresh")
	}
	const warm, jobs, budget = 5, 24, 256 << 10
	for _, gj := range gatherJobs {
		t.Run(gj.name, func(t *testing.T) {
			srv := NewServer(Config{Executors: 1, Workers: 1})
			defer srv.Drain()
			for i := 0; i < warm; i++ {
				submitGather(t, srv, gj.nodes)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < jobs; i++ {
				submitGather(t, srv, gj.nodes)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / jobs; per > budget {
				t.Errorf("%d bytes allocated per gather job on %d nodes, budget %d", per, gj.nodes, budget)
			}
		})
	}
}
