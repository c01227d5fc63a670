package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cucc/internal/comm"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

func newTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: n, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestAllocSameOffsets(t *testing.T) {
	c := newTestCluster(t, 4)
	a := c.Alloc(kir.F32, 100)
	b := c.Alloc(kir.U8, 13)
	d := c.Alloc(kir.I32, 7)
	if a.Off != 0 || b.Off != 400 || d.Off != 413 {
		t.Errorf("offsets = %d/%d/%d, want 0/400/413", a.Off, b.Off, d.Off)
	}
	if d.Bytes() != 28 {
		t.Errorf("d.Bytes() = %d, want 28", d.Bytes())
	}
	for r := 0; r < 4; r++ {
		if got := len(c.Region(r, d)); got != 28 {
			t.Errorf("node %d region length = %d", r, got)
		}
	}
}

func TestWriteAllReadBack(t *testing.T) {
	c := newTestCluster(t, 3)
	b := c.Alloc(kir.F32, 8)
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if err := c.WriteAllF32(b, data); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		got := c.ReadF32(r, b)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("node %d: [%d] = %g, want %g", r, i, got[i], data[i])
			}
		}
	}
	if err := c.VerifyIdentical(b); err != nil {
		t.Errorf("VerifyIdentical: %v", err)
	}
}

func TestVerifyIdenticalDetectsDivergence(t *testing.T) {
	c := newTestCluster(t, 2)
	b := c.Alloc(kir.I32, 4)
	if err := c.WriteAllI32(b, []int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Corrupt node 1 privately.
	c.Region(1, b)[5] = 0xFF
	if err := c.VerifyIdentical(b); err == nil {
		t.Error("divergent memory not detected")
	}
}

func TestMemoryIsolation(t *testing.T) {
	c := newTestCluster(t, 2)
	b := c.Alloc(kir.F32, 4)
	m0 := c.Mem(0, map[int]Buffer{0: b})
	m1 := c.Mem(1, map[int]Buffer{0: b})
	m0.StoreF32(0, 2, 42)
	if m1.LoadF32(0, 2) == 42 {
		t.Fatal("node memories are shared; they must be private")
	}
	if m0.LoadF32(0, 2) != 42 {
		t.Fatal("node 0 lost its own write")
	}
}

func TestNodeMemTypes(t *testing.T) {
	c := newTestCluster(t, 1)
	f := c.Alloc(kir.F32, 2)
	i := c.Alloc(kir.I32, 2)
	u := c.Alloc(kir.U8, 2)
	m := c.Mem(0, map[int]Buffer{0: f, 1: i, 2: u})
	m.StoreF32(0, 1, 2.5)
	m.StoreI32(1, 0, -7)
	m.StoreU8(2, 1, 200)
	if m.LoadF32(0, 1) != 2.5 || m.LoadI32(1, 0) != -7 || m.LoadU8(2, 1) != 200 {
		t.Error("typed load/store round-trip failed")
	}
	if m.Len(0) != 2 || m.Len(2) != 2 {
		t.Error("Len mismatch")
	}
}

func TestRunParallelAndAllgather(t *testing.T) {
	const n = 4
	c := newTestCluster(t, n)
	b := c.Alloc(kir.U8, 4*16)
	// Each node fills its own quarter, then an in-place Allgather makes
	// the buffer identical everywhere.
	err := c.RunParallel(func(rank int, conn transport.Conn) error {
		region := c.Region(rank, b)
		for i := 0; i < 16; i++ {
			region[rank*16+i] = byte(rank + 1)
		}
		_, err := comm.AllgatherRing(conn, region, 16)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyIdentical(b); err != nil {
		t.Fatal(err)
	}
	got := c.Region(0, b)
	for r := 0; r < n; r++ {
		for i := 0; i < 16; i++ {
			if got[r*16+i] != byte(r+1) {
				t.Fatalf("byte %d = %d, want %d", r*16+i, got[r*16+i], r+1)
			}
		}
	}
}

func TestClocks(t *testing.T) {
	c := newTestCluster(t, 3)
	c.Node(0).Clock = 1.0
	c.Node(1).Clock = 3.0
	c.Node(2).Clock = 2.0
	if c.MaxClock() != 3.0 {
		t.Errorf("MaxClock = %g", c.MaxClock())
	}
	g := c.FullGroup()
	if g.MaxClock() != 3.0 {
		t.Errorf("Group.MaxClock = %g", g.MaxClock())
	}
	g.SyncClocksMax(0.5)
	for r := 0; r < 3; r++ {
		if c.Node(r).Clock != 3.5 {
			t.Errorf("node %d clock = %g, want 3.5", r, c.Node(r).Clock)
		}
	}
	// A subgroup syncs its members only: node 1 is not one.
	sub, err := c.AdoptSubgroup([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Node(1).Clock = 9.0
	sub.SyncClocksMax(1)
	for r, want := range []float64{4.5, 9.0, 4.5} {
		if c.Node(r).Clock != want {
			t.Errorf("after subgroup sync: node %d clock = %g, want %g", r, c.Node(r).Clock, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("zero-node cluster accepted")
	}
}

func TestMemoryCapEnforced(t *testing.T) {
	c, err := New(Config{Nodes: 2, Machine: machine.Intel6226(), Net: simnet.IB100(), MaxBytesPerNode: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Alloc(kir.F32, 128) // 512 bytes, fine
	if got := c.BytesPerNode(); got != 512 {
		t.Errorf("BytesPerNode = %d, want 512", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("over-cap allocation did not panic")
		}
	}()
	c.Alloc(kir.F32, 1024) // 4 KiB, over the 1 KiB cap
}

// TestTryAllocRefuses: the error form refuses an over-cap, a negative and an
// overflowing count and reserves nothing when it does; Alloc panics with the
// same text, and after Close both refuse.
func TestTryAllocRefuses(t *testing.T) {
	c, err := New(Config{Nodes: 2, Machine: machine.Intel6226(), Net: simnet.IB100(), MaxBytesPerNode: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Alloc(kir.F32, 128) // 512 bytes, fine
	for _, tc := range []struct {
		count int
		want  string
	}{
		{1024, "exceeds 1024 bytes per node"},
		{-1, "invalid allocation"},
		{math.MaxInt / 2, "invalid allocation"}, // count x 4 overflows
	} {
		if _, err := c.TryAlloc(kir.F32, tc.count); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("TryAlloc(%d) = %v, want an error containing %q", tc.count, err, tc.want)
		}
		mustPanic(t, fmt.Sprintf("Alloc(%d)", tc.count), tc.want, func() { c.Alloc(kir.F32, tc.count) })
		if got := c.BytesPerNode(); got != 512 {
			t.Errorf("after a refused count of %d, BytesPerNode = %d, want 512", tc.count, got)
		}
	}
	if b, err := c.TryAlloc(kir.F32, 128); err != nil || b.Off != 512 {
		t.Errorf("TryAlloc up to the cap = %+v, %v; want offset 512 and no error", b, err)
	}
	c.Close()
	if _, err := c.TryAlloc(kir.U8, 1); err == nil || err.Error() != errUseAfterClose {
		t.Errorf("TryAlloc after Close = %v, want %q", err, errUseAfterClose)
	}
	mustPanic(t, "Alloc after Close", errUseAfterClose, func() { c.Alloc(kir.U8, 1) })
}

func TestRunParallelJoinsAllErrors(t *testing.T) {
	c := newTestCluster(t, 4)
	err := c.RunParallel(func(rank int, conn transport.Conn) error {
		switch rank {
		case 1:
			return errors.New("bad block split")
		case 3:
			return errors.New("oom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("RunParallel swallowed the failures")
	}
	msg := err.Error()
	for _, want := range []string{"node 1", "bad block split", "node 3", "oom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error %q missing %q", msg, want)
		}
	}
}

// TestRunParallelAbortUnblocksCollective: one rank failing before it joins
// the collective must abort its peers' pending receives instead of
// deadlocking them.  Pre-abort this test would hang until the suite
// timeout.
func TestRunParallelAbortUnblocksCollective(t *testing.T) {
	c, err := New(Config{
		Nodes: 4, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 30 * time.Second, // backstop only; the abort must win
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.Alloc(kir.U8, 4*8)
	start := time.Now()
	err = c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 2 {
			return errors.New("rank 2 exploded")
		}
		_, err := comm.AllgatherRing(conn, c.Region(rank, b), 8)
		return err
	})
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("peers unblocked only after %v", el)
	}
	if err == nil {
		t.Fatal("RunParallel returned nil despite a failing rank")
	}
	if !strings.Contains(err.Error(), "rank 2 exploded") {
		t.Errorf("error %q missing the originating failure", err)
	}
	if !errors.Is(err, transport.ErrAborted) {
		t.Errorf("peers' errors do not wrap ErrAborted: %v", err)
	}
}

func TestRecvTimeoutConfig(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 0 {
			_, err := conn.Recv(1, 7) // nobody sends: default deadline applies
			return err
		}
		return nil
	})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("error = %v, want ErrTimeout via configured default", err)
	}
}

func TestClusterFaultInjection(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, Machine: machine.Intel6226(), Net: simnet.IB100(),
		Fault: &transport.FaultConfig{Seed: 4, Duplicate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 0 {
			return conn.Send(1, 1, []byte("hello"))
		}
		got, err := conn.RecvTimeout(0, 1, 5*time.Second)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("payload %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Faults()
	if st == nil {
		t.Fatal("Faults() returned nil on a fault-injecting cluster")
	}
	if st.Duplicates == 0 {
		t.Error("no duplicates injected despite Duplicate: 1.0")
	}
	if newTestCluster(t, 2).Faults() != nil {
		t.Error("Faults() non-nil on a fault-free cluster")
	}
}

// TestRunParallelPreservesCauseIdentity: the cause a failing rank's error
// carries must errors.Is/As-match on the surviving ranks' aborts and in the
// joined error.  Before the %w fix, RunParallel aborted peers with
// fmt.Errorf("node %d: %v", ...), flattening the cause to a string —
// recovery's failure classification depends on the identity surviving.
func TestRunParallelPreservesCauseIdentity(t *testing.T) {
	sentinel := errors.New("simulated crash")
	c, err := New(Config{
		Nodes: 3, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 30 * time.Second, // backstop only; the abort must win
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	observed := make([]error, 3)
	err = c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 1 {
			return fmt.Errorf("phase 2: %w", sentinel)
		}
		_, rerr := conn.Recv(1, 9)
		mu.Lock()
		observed[rank] = rerr
		mu.Unlock()
		return rerr
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("joined error lost the cause: %v", err)
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("joined error carries no NodeError: %v", err)
	}
	for _, r := range []int{0, 2} {
		if !errors.Is(observed[r], transport.ErrAborted) {
			t.Errorf("rank %d error = %v, want ErrAborted", r, observed[r])
		}
		if !errors.Is(observed[r], sentinel) {
			t.Errorf("rank %d abort flattened the cause: %v", r, observed[r])
		}
	}
	// Classification-style attribution: exactly node 1 is the non-aborted
	// failure in the join.
	seen := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if n, ok := e.(*NodeError); ok {
			if !errors.Is(n, transport.ErrAborted) {
				seen[n.Node] = true
			}
			return
		}
		if u, ok := e.(interface{ Unwrap() []error }); ok {
			for _, s := range u.Unwrap() {
				walk(s)
			}
		}
	}
	walk(err)
	if len(seen) != 1 || !seen[1] {
		t.Errorf("non-aborted failures attributed to %v, want node 1 only", seen)
	}
}

// TestSubgroupRunsAfterAbort: after a rank failure kills the main network,
// AdoptSubgroup connects the survivors over a fresh transport that still
// runs collectives, RejoinAll restores full width, and a cluster-level
// abort (external cancellation) blocks regrouping for good.
func TestSubgroupRunsAfterAbort(t *testing.T) {
	c, err := New(Config{
		Nodes: 4, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.Alloc(kir.U8, 4*8)
	err = c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 2 {
			return errors.New("rank 2 crashed")
		}
		_, err := comm.AllgatherRing(conn, c.Region(rank, b), 8)
		return err
	})
	if err == nil {
		t.Fatal("want the crash to fail the full-width run")
	}

	g, err := c.AdoptSubgroup([]int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 || g.NodeOf(2) != 3 || g.Full() {
		t.Fatalf("subgroup shape wrong: size=%d nodeOf(2)=%d full=%v", g.Size(), g.NodeOf(2), g.Full())
	}
	sb := c.Alloc(kir.U8, 3*8)
	for m, node := range g.Nodes() {
		for i := 0; i < 8; i++ {
			c.Region(node, sb)[m*8+i] = byte(10 + m)
		}
	}
	if err := g.RunParallel(func(m int, conn transport.Conn) error {
		_, err := comm.AllgatherRing(conn, c.Region(g.NodeOf(m), sb), 8)
		return err
	}); err != nil {
		t.Fatalf("subgroup collective failed on the fresh network: %v", err)
	}
	for _, node := range g.Nodes() {
		for m := 0; m < 3; m++ {
			if c.Region(node, sb)[m*8] != byte(10+m) {
				t.Fatalf("node %d chunk %d not gathered", node, m)
			}
		}
	}

	if err := c.RejoinAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 0 {
			return conn.Send(1, 1, []byte("post-rejoin"))
		}
		if rank == 1 {
			_, err := conn.RecvTimeout(0, 1, 5*time.Second)
			return err
		}
		return nil
	}); err != nil {
		t.Fatalf("full-width run after rejoin failed: %v", err)
	}

	c.Abort(errors.New("deadline"))
	if _, err := c.AdoptSubgroup([]int{0, 1}); err == nil {
		t.Fatal("AdoptSubgroup after a cluster-level abort must refuse")
	}
}

// heapOf returns a copy of node r's whole heap.
func heapOf(c *Cluster, r int) []byte {
	return append([]byte(nil), c.HeapBytes(r, 0, c.BytesPerNode())...)
}

func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
			t.Errorf("%s: panic %q, want one containing %q", what, got, want)
		}
	}()
	fn()
}

// dirtySlabs leaves the free list holding nodes slabs of size bytes, every
// byte 0xFF: what a departed tenant's data looks like to the next cluster.
func dirtySlabs(t *testing.T, nodes, size int) {
	t.Helper()
	c := newTestCluster(t, nodes)
	b := c.Alloc(kir.U8, size)
	if err := c.WriteAll(b, bytes.Repeat([]byte{0xFF}, size)); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestRecycledHeapsReadZero: node memory outlives a cluster on the free
// list, so whatever a closed cluster left in it must be invisible to the
// next one — at the same size, a smaller one, a larger one, and in the tail
// a heap exposes when it grows inside a slab that was already large enough.
func TestRecycledHeapsReadZero(t *testing.T) {
	const size = 1 << 16
	dirty := func() { dirtySlabs(t, 8, size) }
	assertZero := func(c *Cluster, b Buffer, what string) {
		t.Helper()
		for r := 0; r < c.N(); r++ {
			if i := bytes.IndexFunc(c.Region(r, b), func(x rune) bool { return x != 0 }); i >= 0 {
				t.Fatalf("%s: node %d byte %d of a fresh buffer is not zero", what, r, i)
			}
		}
	}
	for _, n := range []int{size, size/2 + 3, 2 * size} {
		dirty()
		c := newTestCluster(t, 8)
		assertZero(c, c.Alloc(kir.U8, n), fmt.Sprintf("%d bytes after a %d-byte tenant", n, size))
		c.Close()
	}
	dirty()
	c := newTestCluster(t, 8)
	head := c.Alloc(kir.U8, size/2+3) // same size class as the dirty slabs
	assertZero(c, head, "head")
	if err := c.WriteAll(head, bytes.Repeat([]byte{0xEE}, head.Count)); err != nil {
		t.Fatal(err)
	}
	tail := c.Alloc(kir.U8, size/4) // grows in place, re-exposing old bytes
	assertZero(c, tail, "tail exposed by growth inside the slab")
	if got := c.Region(3, head); got[0] != 0xEE || got[len(got)-1] != 0xEE {
		t.Error("growth inside the slab lost earlier contents")
	}
}

// TestCommittingWriteClearsAllItDoesNotFill: when a WriteAll* is the access
// that commits recycled slabs, only the bytes it then overwrites on every
// node are spared the clearing.  The rest of its buffer, and every other
// buffer, must still read zero; a write that is refused commits nothing; and
// a commit that grows the heap keeps what earlier writes put there.
func TestCommittingWriteClearsAllItDoesNotFill(t *testing.T) {
	const size = 1 << 15
	zeroFrom := func(c *Cluster, b Buffer, from int, what string) {
		t.Helper()
		for r := 0; r < c.N(); r++ {
			if i := bytes.IndexFunc(c.Region(r, b)[from:], func(x rune) bool { return x != 0 }); i >= 0 {
				t.Fatalf("%s: node %d byte %d is not zero", what, r, from+i)
			}
		}
	}
	short := bytes.Repeat([]byte{0xAB}, size/3)

	dirtySlabs(t, 8, 2*size)
	c := newTestCluster(t, 8)
	a, b := c.Alloc(kir.U8, size), c.Alloc(kir.U8, size)
	if err := c.WriteAll(a, short); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.N(); r++ {
		if !bytes.Equal(c.Region(r, a)[:len(short)], short) {
			t.Fatalf("node %d does not hold the written prefix", r)
		}
	}
	zeroFrom(c, a, len(short), "first buffer past the written prefix")
	zeroFrom(c, b, 0, "second buffer")
	c.Close()

	dirtySlabs(t, 8, 2*size)
	c = newTestCluster(t, 8)
	a = c.Alloc(kir.U8, size)
	if err := c.WriteAll(a, make([]byte, size+1)); err == nil {
		t.Fatal("oversize WriteAll must fail")
	}
	if got := c.backed.Load(); got != 0 {
		t.Fatalf("refused WriteAll committed %d bytes", got)
	}
	zeroFrom(c, a, 0, "buffer after a refused write")
	c.Close()

	dirtySlabs(t, 8, 2*size)
	c = newTestCluster(t, 8)
	a = c.Alloc(kir.U8, size)
	if err := c.WriteAll(a, short); err != nil {
		t.Fatal(err)
	}
	b = c.Alloc(kir.U8, size) // grows inside the recycled slab
	if err := c.WriteAll(b, short); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.N(); r++ {
		if !bytes.Equal(c.Region(r, a)[:len(short)], short) || !bytes.Equal(c.Region(r, b)[:len(short)], short) {
			t.Fatalf("node %d lost a written prefix across the second commit", r)
		}
	}
	zeroFrom(c, a, len(short), "first buffer past its prefix, after growth")
	zeroFrom(c, b, len(short), "second buffer past its prefix")
}

// TestLazyCommitPreservesContents: allocate-all-then-write and
// allocate-write-allocate-write leave identical heaps, whether the second
// allocation fits the slab the first commit took or outgrows it.
func TestLazyCommitPreservesContents(t *testing.T) {
	one := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	for _, second := range []int{5, 4096} {
		two := make([]int32, second)
		for i := range two {
			two[i] = int32(-i - 1)
		}
		upfront := newTestCluster(t, 3)
		a, b := upfront.Alloc(kir.F32, len(one)), upfront.Alloc(kir.I32, second)
		if err := errors.Join(upfront.WriteAllF32(a, one), upfront.WriteAllI32(b, two)); err != nil {
			t.Fatal(err)
		}
		stepwise := newTestCluster(t, 3)
		a = stepwise.Alloc(kir.F32, len(one))
		if err := stepwise.WriteAllF32(a, one); err != nil {
			t.Fatal(err)
		}
		b = stepwise.Alloc(kir.I32, second)
		if err := stepwise.WriteAllI32(b, two); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if !bytes.Equal(heapOf(upfront, r), heapOf(stepwise, r)) {
				t.Errorf("second buffer of %d: node %d heap differs between the two orders", second, r)
			}
		}
		if got := stepwise.ReadF32(2, a); got[7] != 8 {
			t.Errorf("second buffer of %d: first buffer lost across growth: %v", second, got)
		}
	}
}

// TestConcurrentFirstRegion: ranks reach Region concurrently on a cluster
// nothing has touched yet (core's launch and the benchmark's collective
// probes both do); exactly one of them commits.  Run under -race.
func TestConcurrentFirstRegion(t *testing.T) {
	c := newTestCluster(t, 8)
	b := c.Alloc(kir.I32, 1024)
	var wg sync.WaitGroup
	for r := 0; r < c.N(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reg := c.Region(r, b)
			if len(reg) != b.Bytes() {
				t.Errorf("node %d: region of %d bytes, want %d", r, len(reg), b.Bytes())
			}
			reg[0] = byte(r + 1)
		}(r)
	}
	wg.Wait()
	for r := 0; r < c.N(); r++ {
		if got := c.Region(r, b)[0]; got != byte(r+1) {
			t.Errorf("node %d: first byte %d, want %d (heaps shared or re-committed)", r, got, r+1)
		}
	}
}

// TestHeapLengthIsExact: a slab is larger than the heap it backs, but the
// node's memory is not: an access past the last allocation still panics.
func TestHeapLengthIsExact(t *testing.T) {
	c := newTestCluster(t, 1)
	b := c.Alloc(kir.U8, 100) // backed by a 128-byte slab
	mustPanic(t, "HeapBytes past the heap end", "out of range", func() { c.HeapBytes(0, 0, 101) })
	mustPanic(t, "store past the heap end", "out of range", func() {
		c.Mem(0, map[int]Buffer{0: b}).StoreU8(0, 100, 1)
	})
	mustPanic(t, "unbound param", "no buffer bound to param 1", func() {
		c.Mem(0, map[int]Buffer{0: b, 2: b}).LoadU8(1, 0)
	})
}

// TestCloseIdempotentAndFinal: a second Close must not put the same slabs
// on the free list twice (two later clusters would share memory), and a
// closed cluster panics instead of reading bytes it no longer owns.
func TestCloseIdempotentAndFinal(t *testing.T) {
	c := newTestCluster(t, 1)
	b := c.Alloc(kir.U8, 4096)
	c.Region(0, b)[0] = 1
	c.Close()
	c.Close()

	x, y := newTestCluster(t, 1), newTestCluster(t, 1)
	bx, by := x.Alloc(kir.U8, 4096), y.Alloc(kir.U8, 4096)
	x.Region(0, bx)[7] = 0xAB
	if y.Region(0, by)[7] != 0 {
		t.Error("two live clusters share a slab after a double Close")
	}

	for what, fn := range map[string]func(){
		"Region":    func() { c.Region(0, b) },
		"Mem":       func() { c.Mem(0, map[int]Buffer{0: b}) },
		"HeapBytes": func() { c.HeapBytes(0, 0, 1) },
		"Alloc":     func() { c.Alloc(kir.U8, 1) },
		"WriteAll":  func() { _ = c.WriteAll(b, []byte{1}) },
	} {
		mustPanic(t, what+" after Close", "cluster: use after Close", fn)
	}
	empty := newTestCluster(t, 2) // never allocated: nothing to release
	empty.Close()
	mustPanic(t, "Region on a closed empty cluster", "cluster: use after Close", func() { empty.Region(0, Buffer{}) })
}

// TestRunParallelPanicFailsRun: a member that panics while its peers are
// blocked in Recv fails the run instead of the process.  Every member
// returns — the panic aborts the transport, which unblocks the peers — and
// the error carries the panic value and a stack, but is no NodeError, so it
// never reads as a lost rank.
func TestRunParallelPanicFailsRun(t *testing.T) {
	c, err := New(Config{
		Nodes: 4, Machine: machine.Intel6226(), Net: simnet.IB100(),
		RecvTimeout: 30 * time.Second, // backstop only; the abort must win
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var returned sync.WaitGroup
	returned.Add(3)
	start := time.Now()
	err = c.RunParallel(func(rank int, conn transport.Conn) error {
		if rank == 1 {
			panic("rank 1 panicked")
		}
		defer returned.Done()
		_, err := conn.Recv(1, 7)
		return err
	})
	returned.Wait()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("peers unblocked only after %v", el)
	}
	if err == nil {
		t.Fatal("RunParallel returned nil despite a panicking member")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1 panicked") || !strings.Contains(msg, "cluster_test.go") {
		t.Errorf("error lacks the panic value or its stack: %v", err)
	}
	if !errors.Is(err, transport.ErrAborted) {
		t.Errorf("peers' errors do not wrap ErrAborted: %v", err)
	}
	var ne *NodeError
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		if errors.As(e, &ne) && !errors.Is(e, transport.ErrAborted) {
			t.Errorf("member error %v reads as a lost rank (node %d)", e, ne.Node)
		}
	}
}
