package cluster

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"cucc/internal/obs"
	"cucc/internal/transport"
)

// NodeError attributes a rank failure to a cluster node.  RunParallel joins
// these; recovery.Classify unwraps them (via the recovery.NodeFailure
// interface) to tell crashed ranks from abort victims, so the wrapped cause
// must keep its error identity end to end.
type NodeError struct {
	// Node is the cluster node index the failure is attributed to.
	Node int
	// Err is the rank's own error.
	Err error
}

func (e *NodeError) Error() string { return fmt.Sprintf("node %d: %v", e.Node, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *NodeError) Unwrap() error { return e.Err }

// FailedNode implements recovery.NodeFailure.
func (e *NodeError) FailedNode() int { return e.Node }

// Group is the set of cluster nodes participating in one launch attempt,
// with the transport connecting exactly those nodes.  A fresh cluster's
// group is all nodes; after a rank loss, recovery adopts a subgroup of the
// survivors with a rebuilt transport (the old one is sticky-aborted), and a
// completed recovered launch rejoins to full width.  Transport ranks are
// member indices 0..Size()-1; NodeOf maps them back to cluster node
// indices, which keep their identity (memory, clock, stats) across
// regroupings.
type Group struct {
	c     *Cluster
	nodes []int
	net   transport.Network
	owned bool // net was built for this group and is closed when replaced
}

// FullGroup returns the all-nodes group over the cluster's main network.
func (c *Cluster) FullGroup() *Group {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	nodes := make([]int, c.cfg.Nodes)
	for i := range nodes {
		nodes[i] = i
	}
	return &Group{c: c, nodes: nodes, net: c.network}
}

// ActiveGroup returns the group launches should run on: the adopted
// recovery subgroup when one is live, the full cluster otherwise.
func (c *Cluster) ActiveGroup() *Group {
	c.netMu.Lock()
	sub := c.sub
	c.netMu.Unlock()
	if sub != nil {
		return sub
	}
	return c.FullGroup()
}

// AdoptSubgroup makes the given cluster nodes the active group, connected
// by a freshly built transport stack of the configured kind (the previous
// network is dead — a sticky abort is what led here).  The kill fault is
// disarmed on the rebuilt stack; stochastic faults keep applying.  A
// replaced subgroup network is closed.
func (c *Cluster) AdoptSubgroup(nodes []int) (*Group, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: subgroup needs at least one node")
	}
	for _, n := range nodes {
		if n < 0 || n >= c.cfg.Nodes {
			return nil, fmt.Errorf("cluster: subgroup node %d out of range (size %d)", n, c.cfg.Nodes)
		}
	}
	c.netMu.Lock()
	dead := c.aborted
	c.netMu.Unlock()
	if dead != nil {
		return nil, fmt.Errorf("cluster: aborted, refusing to regroup: %w", dead)
	}
	net, err := c.buildNetwork(len(nodes), true)
	if err != nil {
		return nil, err
	}
	g := &Group{c: c, nodes: append([]int(nil), nodes...), net: net, owned: true}
	c.netMu.Lock()
	old := c.sub
	c.sub = g
	c.netMu.Unlock()
	if old != nil && old.owned {
		old.net.Close()
	}
	if c.cfg.Journal.On() {
		c.cfg.Journal.Record(obs.EvRegroup, -1, "", fmt.Sprintf("adopted subgroup %v over fresh transport", nodes))
	}
	return g, nil
}

// RejoinAll restores the full cluster width after a recovered launch:
// repaired nodes rejoin over a fresh full-size transport replacing both the
// aborted main network and any active subgroup, so subsequent launches run
// over all nodes again.
func (c *Cluster) RejoinAll() error {
	net, err := c.buildNetwork(c.cfg.Nodes, true)
	if err != nil {
		return err
	}
	c.netMu.Lock()
	oldNet, oldSub := c.network, c.sub
	c.network, c.sub = net, nil
	c.netMu.Unlock()
	oldNet.Close()
	if oldSub != nil && oldSub.owned {
		oldSub.net.Close()
	}
	return nil
}

// Size returns the member count.
func (g *Group) Size() int { return len(g.nodes) }

// Nodes returns the cluster node indices of the members, in member order.
func (g *Group) Nodes() []int { return append([]int(nil), g.nodes...) }

// NodeOf maps a member (transport rank) to its cluster node index.
func (g *Group) NodeOf(m int) int { return g.nodes[m] }

// Conn returns member m's transport endpoint.
func (g *Group) Conn(m int) transport.Conn { return g.net.Conn(m) }

// Full reports whether the group spans every cluster node.
func (g *Group) Full() bool { return len(g.nodes) == g.c.cfg.Nodes }

// RunParallel executes fn concurrently on every member (one goroutine
// each, with the member's transport endpoint) and joins the errors as
// NodeError values attributed to cluster node indices.  A failing member
// aborts the group's transport so peers blocked in a collective unblock
// with transport.ErrAborted; the abort cause wraps the member's error with
// %w so its identity survives to the surviving ranks.
//
// A member that panics fails the same way, with the panic value and its
// stack as the error, but that error is not a NodeError: a panic is a bug
// in the code the member ran, not a lost rank, so recovery.Classify never
// counts it as one and no restore replays it.
func (g *Group) RunParallel(fn func(member int, conn transport.Conn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.nodes))
	for m := range g.nodes {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			conn := g.net.Conn(m)
			defer func() {
				if v := recover(); v != nil {
					errs[m] = memberPanic{fmt.Errorf("panic: %v\n%s", v, debug.Stack())}
					conn.Abort(fmt.Errorf("node %d: %w", g.nodes[m], errs[m]))
				}
			}()
			if err := fn(m, conn); err != nil {
				errs[m] = err
				conn.Abort(fmt.Errorf("node %d: %w", g.nodes[m], err))
			}
		}(m)
	}
	wg.Wait()
	var joined []error
	for m, err := range errs {
		switch err.(type) {
		case nil:
		case memberPanic:
			joined = append(joined, fmt.Errorf("node %d: %w", g.nodes[m], err))
		default:
			joined = append(joined, &NodeError{Node: g.nodes[m], Err: err})
		}
	}
	return errors.Join(joined...)
}

// memberPanic marks a RunParallel member's error as a recovered panic.
type memberPanic struct{ error }

// MaxClock returns the largest member clock.
func (g *Group) MaxClock() float64 {
	m := 0.0
	for _, n := range g.nodes {
		if c := g.c.nodes[n].Clock; c > m {
			m = c
		}
	}
	return m
}

// SyncClocksMax sets every member clock to the group-wide maximum plus dt
// (the semantics of a synchronizing collective costing dt).  Non-members —
// crashed nodes awaiting repair — are left alone.
func (g *Group) SyncClocksMax(dt float64) {
	top := g.MaxClock() + dt
	for _, n := range g.nodes {
		g.c.nodes[n].Clock = top
	}
}

// HeapBytes returns node r's raw heap bytes [off, off+n), aliasing the
// node memory: the access path of the phase-2 Allgather, checkpoint
// capture/restore and crashed-node repair.
func (c *Cluster) HeapBytes(r, off, n int) []byte {
	return c.heap(r)[off : off+n]
}
