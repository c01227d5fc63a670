package serve

import "testing"

// submitSmall runs one suite job of program on nodes nodes (0 = the server's
// default) through srv and fails tb unless it completed.
func submitSmall(tb testing.TB, srv *Server, program string, nodes int) {
	if resp := srv.Submit(&Request{Tenant: "s", Program: program, Nodes: nodes}); resp.Status != StatusOK {
		tb.Fatalf("%s on %d nodes: %s %s", program, nodes, resp.Status, resp.Err)
	}
}

// BenchmarkSmallJob sizes the serve-small workload's three job classes end
// to end through Server.Submit on one executor and the server's default
// node count: cluster build, buffer fill, checkpoint, the launch (where the
// FIR and Kmeans natives run), the Allgather and the output check.
func BenchmarkSmallJob(b *testing.B) {
	for _, program := range []string{"VecAdd", "FIR", "Kmeans"} {
		b.Run(program, func(b *testing.B) {
			srv := NewServer(Config{Executors: 1})
			defer srv.Drain()
			submitSmall(b, srv, program, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitSmall(b, srv, program, 0)
			}
		})
	}
}

// TestSmallJobAllocs pins how many allocations a warm 2-node VecAdd suite
// job makes through Server.Submit, so that work on per-job instrumentation
// has a ceiling to lower and nothing raises it unseen.
func TestSmallJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const ceiling = 247 // 236 when pinned, plus 5%
	srv := NewServer(Config{Executors: 1, Workers: 1})
	defer srv.Drain()
	submitSmall(t, srv, "VecAdd", 2)
	allocs := testing.AllocsPerRun(50, func() { submitSmall(t, srv, "VecAdd", 2) })
	if allocs > ceiling {
		t.Errorf("%.0f allocations per 2-node VecAdd job, ceiling %d", allocs, ceiling)
	}
}
