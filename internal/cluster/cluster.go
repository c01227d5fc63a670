// Package cluster implements the simulated distributed-memory CPU cluster
// CuCC executes on: N nodes, each with a private linear byte-addressed
// memory, a hardware model (internal/machine), a simulated clock, and a
// message transport to its peers.
//
// Memory really is private per node — nothing is shared — so any
// consistency bug in the runtime shows up as wrong data, exactly as on the
// paper's physical clusters.  Buffers are allocated at identical offsets on
// every node, mirroring the symmetric heaps of MPI/PGAS runtimes.
package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cucc/internal/comm"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
	"cucc/internal/transport"
)

// Transport selects how node messages travel.
type Transport uint8

const (
	// Inproc uses in-memory mailboxes (default; deterministic and fast).
	Inproc Transport = iota
	// TCP uses loopback sockets (stdlib net): the realcluster mode that
	// exercises actual framing, dials, and kernel-buffer copies.
	TCP
)

// Config describes a cluster.
type Config struct {
	// Nodes is the node count.
	Nodes int
	// Machine is the per-node hardware model.
	Machine machine.CPU
	// Net is the interconnect cost model.
	Net simnet.Model
	// Transport selects the message transport (Inproc default).
	Transport Transport
	// MaxBytesPerNode caps each node's memory (0 = unlimited); Alloc
	// panics past the cap, catching accidental paper-scale allocations
	// that should have used virtual buffers and Estimate.
	MaxBytesPerNode int
	// RecvTimeout bounds every transport receive, so a rank that stops
	// participating in a collective surfaces as ErrTimeout instead of a
	// deadlock.  0 or negative sets no deadline.
	RecvTimeout time.Duration
	// Fault, when non-nil, wraps the transport in the fault-injecting
	// decorator (transport.Faulty) for chaos testing.
	Fault *transport.FaultConfig
	// Recovery is the elastic-recovery policy of every launch on the
	// cluster: when enabled, launches checkpoint at Allgather barriers and,
	// on rank loss, re-partition over the surviving ranks and replay from
	// the last barrier (see internal/recovery).  The zero value disables it.
	Recovery recovery.Policy
	// Metrics, when non-nil, attaches the observability registry: the
	// transport is wrapped in the metered decorator (outermost, above fault
	// injection, so it observes exactly the operations the comm layer
	// performs), the comm collectives record per-op counters into it, and
	// cluster-level gauges (node count, heap bytes, injected-fault totals)
	// are registered.  Sessions without a registry of their own report into
	// it too.  Nil disables metrics and leaves the transport unwrapped.
	Metrics *metrics.Registry
	// Journal, when enabled, records cluster-level lifecycle events (abort,
	// subgroup regroup) into the structured event journal.  The zero Scope
	// is disabled and costs one nil check per event site.
	Journal obs.Scope
}

// Cluster is a set of nodes plus their interconnect.
type Cluster struct {
	cfg   Config
	nodes []*Node

	// heapEnd is the per-node address space Alloc has reserved; backed is
	// how much of it every node's memory currently covers (len(Node.mem)),
	// or -1 once the cluster is closed.  heapMu serialises commit and
	// Close; see heap.go.
	heapEnd int
	backed  atomic.Int64
	heapMu  sync.Mutex

	// netMu guards the swappable transport state below: recovery replaces
	// networks (subgroup adoption, full-width rejoin) while metrics gauges
	// may concurrently read the fault totals.
	netMu    sync.Mutex
	network  transport.Network
	sub      *Group                     // active recovery subgroup, nil = full width
	aborted  error                      // sticky cluster-level abort cause (e.g. a job deadline)
	faulties []*transport.FaultyNetwork // every fault layer ever built; totals are summed
}

// Node is one cluster node.
type Node struct {
	Rank int
	// mem is the node's heap, len == the committed heapEnd; slab is the
	// pooled allocation backing it (nil until the first commit).
	mem  []byte
	slab *[]byte
	// Clock is the node's simulated time in seconds.
	Clock float64
	// Comm accumulates the node's collective traffic (sent and received).
	Comm comm.Stats
	// atomics serializes global-memory atomic RMW across the blocks the
	// node's worker pool executes concurrently (see interp.AtomicMemory).
	atomics interp.AtomicShards
}

// Buffer names a region allocated at the same offset on every node.
type Buffer struct {
	Off   int
	Elem  kir.ScalarType
	Count int
}

// Bytes returns the byte length of the buffer.
func (b Buffer) Bytes() int { return b.Count * b.Elem.Size() }

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: make([]*Node, cfg.Nodes),
	}
	net, err := c.buildNetwork(cfg.Nodes, false)
	if err != nil {
		return nil, err
	}
	c.network = net
	if c.cfg.Metrics != nil {
		c.registerGauges()
	}
	for r := 0; r < cfg.Nodes; r++ {
		c.nodes[r] = &Node{Rank: r}
	}
	return c, nil
}

// buildNetwork assembles one transport stack of the configured kind for n
// endpoints: base transport, fault layer, metered layer (outermost, so the
// meter sees the same operations comm performs), receive deadline.
// Recovery rebuilds networks — for the surviving subgroup and for the
// full-width rejoin — because a sticky abort leaves the old one dead;
// rebuilt stacks disarm the kill fault (disarmKill), since it models a
// single crash event that already happened, while the stochastic fault
// regime keeps applying.
func (c *Cluster) buildNetwork(n int, disarmKill bool) (transport.Network, error) {
	var net transport.Network
	switch c.cfg.Transport {
	case TCP:
		tn, err := transport.NewTCP(n)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		net = tn
	default:
		net = transport.NewInproc(n)
	}
	if c.cfg.Fault != nil {
		fc := *c.cfg.Fault
		if disarmKill {
			fc = fc.WithoutKill()
		}
		f := transport.NewFaulty(net, fc)
		c.netMu.Lock()
		c.faulties = append(c.faulties, f)
		c.netMu.Unlock()
		net = f
	}
	if c.cfg.Metrics != nil {
		net = transport.NewMetered(net, c.cfg.Metrics)
	}
	if to := c.cfg.RecvTimeout; to > 0 {
		for r := 0; r < n; r++ {
			net.Conn(r).SetRecvTimeout(to)
		}
	}
	return net, nil
}

// N returns the node count.
func (c *Cluster) N() int { return c.cfg.Nodes }

// Machine returns the per-node hardware model.
func (c *Cluster) Machine() machine.CPU { return c.cfg.Machine }

// Net returns the interconnect model.
func (c *Cluster) Net() simnet.Model { return c.cfg.Net }

// Recovery returns the cluster's elastic-recovery policy.
func (c *Cluster) Recovery() recovery.Policy { return c.cfg.Recovery }

// Node returns node r.
func (c *Cluster) Node(r int) *Node { return c.nodes[r] }

// Conn returns node r's transport endpoint on the main (full-width)
// network.
func (c *Cluster) Conn(r int) transport.Conn {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	return c.network.Conn(r)
}

// Abort cancels the in-flight job: every pending transport receive on
// every node — on the main network and on any live recovery subgroup —
// unblocks with an error wrapping transport.ErrAborted.  The abort is
// sticky at the cluster level too: AdoptSubgroup refuses afterwards, so an
// externally-cancelled job (e.g. a serve deadline) cannot recover its way
// past the cancellation.
func (c *Cluster) Abort(cause error) {
	c.netMu.Lock()
	first := c.aborted == nil
	if first {
		c.aborted = cause
	}
	net, sub := c.network, c.sub
	c.netMu.Unlock()
	if first && c.cfg.Journal.On() {
		c.cfg.Journal.Record(obs.EvAbort, -1, "", cause.Error())
	}
	net.Abort(cause)
	if sub != nil {
		sub.net.Abort(cause)
	}
}

// Faults reports the injected-fault counters when the cluster was built
// with Config.Fault (nil otherwise), summed over every network the cluster
// has run — recovery rebuilds the transport stack for surviving subgroups
// and rejoins, and faults injected before a crash must stay visible.
func (c *Cluster) Faults() *transport.FaultStats {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	if len(c.faulties) == 0 {
		return nil
	}
	var total transport.FaultStats
	for _, f := range c.faulties {
		st := f.Stats()
		total.Drops += st.Drops
		total.Delays += st.Delays
		total.Duplicates += st.Duplicates
		total.Corruptions += st.Corruptions
		total.SendFailures += st.SendFailures
		total.Retries += st.Retries
		total.Kills += st.Kills
	}
	return &total
}

// Metrics returns the registry the cluster reports into (nil when metrics
// are disabled).
func (c *Cluster) Metrics() *metrics.Registry { return c.cfg.Metrics }

// registerGauges attaches cluster-level gauge functions: topology, heap
// usage, and — under fault injection — the injected-fault totals by kind.
func (c *Cluster) registerGauges() {
	r := c.cfg.Metrics
	r.GaugeFunc("cluster.nodes", func() float64 { return float64(c.cfg.Nodes) })
	r.GaugeFunc("cluster.heap_bytes_per_node", func() float64 { return float64(c.heapEnd) })
	if c.cfg.Fault != nil {
		r.GaugeFunc("transport.fault.drops", func() float64 { return float64(c.Faults().Drops) })
		r.GaugeFunc("transport.fault.delays", func() float64 { return float64(c.Faults().Delays) })
		r.GaugeFunc("transport.fault.duplicates", func() float64 { return float64(c.Faults().Duplicates) })
		r.GaugeFunc("transport.fault.corruptions", func() float64 { return float64(c.Faults().Corruptions) })
		r.GaugeFunc("transport.fault.send_failures", func() float64 { return float64(c.Faults().SendFailures) })
		r.GaugeFunc("transport.fault.retries", func() float64 { return float64(c.Faults().Retries) })
		r.GaugeFunc("transport.fault.kills", func() float64 { return float64(c.Faults().Kills) })
	}
}

// Close releases the cluster's transport (and any live recovery subgroup's)
// and returns every node's memory to the process-wide free list, from which
// a later cluster may take it: results must be read before Close, and slices
// obtained from Region or HeapBytes must not be used after it.  Closing
// twice is harmless; Alloc, Region, Mem and HeapBytes panic afterwards.
func (c *Cluster) Close() {
	if !c.releaseHeaps() {
		return
	}
	c.netMu.Lock()
	net, sub := c.network, c.sub
	c.netMu.Unlock()
	net.Close()
	if sub != nil && sub.owned {
		sub.net.Close()
	}
}

// Alloc reserves a buffer of count elements at the same offset on every
// node (zero-initialized), the analogue of cudaMalloc in the CuCC host API.
// It only advances the heap end; memory is committed by the first access
// (see heap.go).  Like every host-API call it must not run concurrently
// with accesses to the cluster's memory.
func (c *Cluster) Alloc(elem kir.ScalarType, count int) Buffer {
	if c.backed.Load() < 0 {
		panic(errUseAfterClose)
	}
	if size := elem.Size(); size == 0 || count < 0 || count > (math.MaxInt-c.heapEnd)/size {
		panic(fmt.Sprintf("cluster: invalid allocation of %d %v elements at heap end %d", count, elem, c.heapEnd))
	}
	b := Buffer{Off: c.heapEnd, Elem: elem, Count: count}
	if end := c.heapEnd + b.Bytes(); c.cfg.MaxBytesPerNode > 0 && end > c.cfg.MaxBytesPerNode {
		panic(fmt.Sprintf("cluster: allocation exceeds %d bytes per node (%d requested); use virtual buffers with Session.Estimate for paper-scale sweeps",
			c.cfg.MaxBytesPerNode, end))
	}
	c.heapEnd += b.Bytes()
	return b
}

// Region returns node r's bytes for the buffer (aliasing the node memory).
func (c *Cluster) Region(r int, b Buffer) []byte {
	return c.heap(r)[b.Off : b.Off+b.Bytes()]
}

// WriteAll copies identical bytes into the buffer on every node (the H2D
// broadcast before kernel launch; all nodes start with identical copies).
func (c *Cluster) WriteAll(b Buffer, data []byte) error {
	return c.broadcast(b, len(data), func(dst []byte) { copy(dst, data) })
}

// WriteAllF32 broadcasts float32 data into the buffer on every node.
func (c *Cluster) WriteAllF32(b Buffer, data []float32) error {
	return c.broadcast(b, 4*len(data), func(dst []byte) {
		for i, v := range data {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	})
}

// WriteAllI32 broadcasts int32 data into the buffer on every node.
func (c *Cluster) WriteAllI32(b Buffer, data []int32) error {
	return c.broadcast(b, 4*len(data), func(dst []byte) {
		for i, v := range data {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	})
}

// broadcast has encode fill the first n bytes of the buffer on node 0 and
// copies them from there to every other node: host data is encoded once, in
// place, with no temporary.  When this is the access that commits the heaps,
// those n bytes are not cleared first: every node's copy is overwritten
// below, before broadcast returns.
func (c *Cluster) broadcast(b Buffer, n int, encode func(dst []byte)) error {
	if n > b.Bytes() {
		return fmt.Errorf("cluster: writing %d bytes into %d-byte buffer", n, b.Bytes())
	}
	c.commit(b.Off, b.Off+n)
	src := c.Region(0, b)[:n]
	encode(src)
	for r := 1; r < len(c.nodes); r++ {
		copy(c.Region(r, b), src)
	}
	return nil
}

// ReadF32 decodes the buffer from node r (the D2H copy).
func (c *Cluster) ReadF32(r int, b Buffer) []float32 {
	raw := c.Region(r, b)
	out := make([]float32, b.Count)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// ReadI32 decodes the buffer from node r.
func (c *Cluster) ReadI32(r int, b Buffer) []int32 {
	raw := c.Region(r, b)
	out := make([]int32, b.Count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// VerifyIdentical checks that the buffer holds identical bytes on every
// node: the consistency invariant the three-phase workflow must restore
// after every kernel.
func (c *Cluster) VerifyIdentical(b Buffer) error {
	ref := c.Region(0, b)
	for r := 1; r < c.N(); r++ {
		if !bytes.Equal(ref, c.Region(r, b)) {
			for i := range ref {
				if ref[i] != c.Region(r, b)[i] {
					return fmt.Errorf("cluster: buffer@%d diverges between node 0 and node %d at byte %d", b.Off, r, i)
				}
			}
		}
	}
	return nil
}

// RunParallel executes fn concurrently on every node (one goroutine per
// rank, each with its transport endpoint) and joins the errors.
//
// A failing node triggers a cooperative cluster-wide abort: peers still
// blocked in a collective receive unblock with transport.ErrAborted
// instead of hanging the WaitGroup forever.  All node errors are joined as
// NodeError values — under fault injection multi-rank failure is the
// common case and every cause must stay visible, with its node attribution
// intact for recovery's failure classification.
func (c *Cluster) RunParallel(fn func(rank int, conn transport.Conn) error) error {
	return c.FullGroup().RunParallel(fn)
}

// BytesPerNode reports each node's allocated heap size.
func (c *Cluster) BytesPerNode() int { return c.heapEnd }

// MaxClock returns the largest node clock (the cluster makespan).
func (c *Cluster) MaxClock() float64 {
	m := 0.0
	for _, n := range c.nodes {
		if n.Clock > m {
			m = n.Clock
		}
	}
	return m
}

// Mem builds an interp.Memory view of node r with the given buffers bound
// to the kernel's pointer parameters (index = parameter position).
func (c *Cluster) Mem(r int, binds map[int]Buffer) *NodeMem {
	c.heap(r) // commit, so the accessors below can index node.mem directly
	size := 0
	for p := range binds {
		size = max(size, p+1)
	}
	m := &NodeMem{node: c.nodes[r], binds: make([]Buffer, size)}
	for p, b := range binds {
		m.binds[p] = b
	}
	return m
}

// NodeMem adapts one node's private memory to the interpreter's Memory
// interface.
type NodeMem struct {
	node *Node
	// binds is indexed by parameter position; a slot whose Elem is
	// kir.Invalid has no buffer bound.  The natives and the interpreter
	// come through here once per element, so the lookup is a bounds check,
	// not a map probe.
	binds []Buffer
}

var _ interp.AtomicMemory = (*NodeMem)(nil)

func (m *NodeMem) buf(param int) Buffer {
	if uint(param) >= uint(len(m.binds)) || m.binds[param].Elem == kir.Invalid {
		panic(unboundParam(param))
	}
	return m.binds[param]
}

// unboundParam is the panic value for an access through a parameter no
// buffer is bound to; a typed value rather than a formatted string keeps
// buf within the inliner's budget, so the accessors pay no call for it.
type unboundParam int

func (p unboundParam) Error() string {
	return fmt.Sprintf("cluster: no buffer bound to param %d", int(p))
}

// Len implements interp.Memory.
func (m *NodeMem) Len(param int) int { return m.buf(param).Count }

// RawBytes implements interp.RawMemory: the node's backing bytes for one
// bound buffer, aliasing the same storage the typed accessors use.
func (m *NodeMem) RawBytes(param int) []byte {
	b := m.buf(param)
	return m.node.mem[b.Off : b.Off+b.Bytes()]
}

// AtomicShard implements interp.AtomicMemory: locks live on the node, so
// every memory view of the same node shares them.
func (m *NodeMem) AtomicShard(param, idx int) *sync.Mutex {
	return m.node.atomics.Shard(param, idx)
}

// LoadF32 implements interp.Memory.
func (m *NodeMem) LoadF32(param, idx int) float32 {
	b := m.buf(param)
	return math.Float32frombits(binary.LittleEndian.Uint32(m.node.mem[b.Off+4*idx:]))
}

// StoreF32 implements interp.Memory.
func (m *NodeMem) StoreF32(param, idx int, v float32) {
	b := m.buf(param)
	binary.LittleEndian.PutUint32(m.node.mem[b.Off+4*idx:], math.Float32bits(v))
}

// LoadI32 implements interp.Memory.
func (m *NodeMem) LoadI32(param, idx int) int32 {
	b := m.buf(param)
	return int32(binary.LittleEndian.Uint32(m.node.mem[b.Off+4*idx:]))
}

// StoreI32 implements interp.Memory.
func (m *NodeMem) StoreI32(param, idx int, v int32) {
	b := m.buf(param)
	binary.LittleEndian.PutUint32(m.node.mem[b.Off+4*idx:], uint32(v))
}

// LoadU8 implements interp.Memory.
func (m *NodeMem) LoadU8(param, idx int) byte {
	b := m.buf(param)
	return m.node.mem[b.Off+idx]
}

// StoreU8 implements interp.Memory.
func (m *NodeMem) StoreU8(param, idx int, v byte) {
	b := m.buf(param)
	m.node.mem[b.Off+idx] = v
}
