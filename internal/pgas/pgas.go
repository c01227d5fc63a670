// Package pgas implements the fine-grained PGAS baseline the paper compares
// against (§3.1, Listing 3; Figures 4 and 10): a UPC++-style migration
// where GPU global memory maps to a block-distributed global array and each
// element access becomes a remote put/get through the runtime.
//
// Execution is real: every rank runs its share of blocks against its
// private node memory; element writes whose owner is another rank are
// buffered as asynchronous puts and delivered over the transport at the
// quiescence point, exactly like UPC++ rput + barrier.  Message counts are
// measured, not estimated, and drive the fine-grained network cost model.
package pgas

import (
	"encoding/binary"
	"fmt"
	"math"

	"cucc/internal/cluster"
	"cucc/internal/comm"
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/transport"
)

// Result reports one PGAS kernel execution.
type Result struct {
	// RemotePuts / RemoteGets count fine-grained accesses whose owner is
	// another rank; LocalOps counts owner-local accesses (which still pay
	// the PGAS library software path).
	RemotePuts int64
	RemoteGets int64
	LocalOps   int64
	// PutBytes / GetBytes are the remote payloads.
	PutBytes int64
	GetBytes int64
	// MaxRankPuts / MaxRankGets are the busiest rank's counts (the ones
	// that pace the execution).
	MaxRankPuts int64
	MaxRankGets int64
	// IncastPuts is the largest number of puts received by any single
	// owner rank; with OwnerRank0 this is the rank-0 bottleneck that
	// flattens PGAS scaling (Figure 4).
	IncastPuts int64
	// CompSec / CommSec / TotalSec are modeled times (max over ranks).
	CompSec  float64
	CommSec  float64
	TotalSec float64
}

// Policy selects how PGAS global arrays are distributed across ranks.
type Policy uint8

const (
	// OwnerRank0 places each global array entirely on rank 0, matching
	// the naive upcxx::new_array migration of the paper's Listing 3.
	// Every write from another rank is a remote put into rank 0 — the
	// incast that flattens Figure 4's scaling curves.
	OwnerRank0 Policy = iota
	// BlockDistributed splits each array into contiguous per-rank chunks
	// (the tuned PGAS variant; an ablation partner).
	BlockDistributed
)

// put is one buffered remote write.
type put struct {
	Param uint32
	Idx   uint32
	Bits  uint32
}

const putSize = 12

// pgasMem wraps a node's memory with block-distributed ownership: element
// i of a buffer with count elements on an n-rank world is owned by rank
// i / ceil(count/n).  Remote stores are buffered per owner; remote loads
// are counted (the data itself is read from the node's replica, which is
// valid because inputs are read-only during a kernel).
type pgasMem struct {
	inner   *cluster.NodeMem
	rank, n int
	binds   map[int]cluster.Buffer
	// global marks the parameters migrated to PGAS arrays: the ones the
	// kernel writes.  Read-only inputs stay local, as in Listing 3 where
	// src remains a plain char* and only dest becomes a global_ptr.
	global map[int]bool
	policy Policy
	outbox [][]put
	res    localCounts
}

type localCounts struct {
	remotePuts, remoteGets, localOps int64
	putBytes, getBytes               int64
	putsToOwner                      []int64
}

var _ interp.Memory = (*pgasMem)(nil)

func (m *pgasMem) owner(param, idx int) int {
	if m.policy == OwnerRank0 {
		return 0
	}
	count := m.binds[param].Count
	chunk := (count + m.n - 1) / m.n
	return idx / chunk
}

func (m *pgasMem) noteGet(param, idx, size int) {
	if !m.global[param] {
		return // local replicated input: ordinary load
	}
	if m.owner(param, idx) == m.rank {
		m.res.localOps++
		return
	}
	m.res.remoteGets++
	m.res.getBytes += int64(size)
}

func (m *pgasMem) store(param, idx int, bits uint32, size int) bool {
	if !m.global[param] {
		return true
	}
	o := m.owner(param, idx)
	if o == m.rank {
		m.res.localOps++
		return true
	}
	m.res.remotePuts++
	m.res.putBytes += int64(size)
	m.res.putsToOwner[o]++
	m.outbox[o] = append(m.outbox[o], put{Param: uint32(param), Idx: uint32(idx), Bits: bits})
	return false
}

// Len implements interp.Memory.
func (m *pgasMem) Len(param int) int { return m.inner.Len(param) }

// LoadF32 implements interp.Memory.
func (m *pgasMem) LoadF32(param, idx int) float32 {
	m.noteGet(param, idx, 4)
	return m.inner.LoadF32(param, idx)
}

// StoreF32 implements interp.Memory.
func (m *pgasMem) StoreF32(param, idx int, v float32) {
	if m.store(param, idx, math.Float32bits(v), 4) {
		m.inner.StoreF32(param, idx, v)
	}
}

// LoadI32 implements interp.Memory.
func (m *pgasMem) LoadI32(param, idx int) int32 {
	m.noteGet(param, idx, 4)
	return m.inner.LoadI32(param, idx)
}

// StoreI32 implements interp.Memory.
func (m *pgasMem) StoreI32(param, idx int, v int32) {
	if m.store(param, idx, uint32(v), 4) {
		m.inner.StoreI32(param, idx, v)
	}
}

// LoadU8 implements interp.Memory.
func (m *pgasMem) LoadU8(param, idx int) byte {
	m.noteGet(param, idx, 1)
	return m.inner.LoadU8(param, idx)
}

// StoreU8 implements interp.Memory.
func (m *pgasMem) StoreU8(param, idx int, v byte) {
	if m.store(param, idx, uint32(v), 1) {
		m.inner.StoreU8(param, idx, v)
	}
}

func encodePuts(puts []put) []byte {
	buf := make([]byte, len(puts)*putSize)
	for i, p := range puts {
		binary.LittleEndian.PutUint32(buf[i*putSize:], p.Param)
		binary.LittleEndian.PutUint32(buf[i*putSize+4:], p.Idx)
		binary.LittleEndian.PutUint32(buf[i*putSize+8:], p.Bits)
	}
	return buf
}

func applyPuts(mem *cluster.NodeMem, binds map[int]cluster.Buffer, data []byte) error {
	if len(data)%putSize != 0 {
		return fmt.Errorf("pgas: corrupt put batch of %d bytes", len(data))
	}
	for i := 0; i < len(data); i += putSize {
		param := int(binary.LittleEndian.Uint32(data[i:]))
		idx := int(binary.LittleEndian.Uint32(data[i+4:]))
		bits := binary.LittleEndian.Uint32(data[i+8:])
		b, ok := binds[param]
		if !ok {
			return fmt.Errorf("pgas: put to unbound param %d", param)
		}
		switch b.Elem.Size() {
		case 4:
			mem.StoreI32(param, idx, int32(bits))
		default:
			mem.StoreU8(param, idx, byte(bits))
		}
	}
	return nil
}

// Session executes kernels with PGAS semantics on a cluster.
type Session struct {
	Cluster *cluster.Cluster
	Prog    *core.Program
	Exec    machine.ExecConfig
	// Policy selects the global-array distribution (OwnerRank0 default).
	Policy Policy
}

// NewSession builds a PGAS session.
func NewSession(c *cluster.Cluster, p *core.Program) *Session {
	return &Session{Cluster: c, Prog: p, Exec: machine.DefaultConfig()}
}

// writtenParams returns the pointer-parameter indices the kernel stores to:
// the arrays that become PGAS globals in the migration.
func writtenParams(k *kir.Kernel) map[int]bool {
	out := map[int]bool{}
	for _, s := range k.GlobalStores() {
		switch s := s.(type) {
		case *kir.Store:
			out[s.Mem.Param] = true
		case *kir.AtomicRMW:
			out[s.Mem.Param] = true
		}
	}
	return out
}

// Run executes the kernel with blocks divided contiguously across ranks
// (ceil split, no callback phase) and all pointer parameters treated as
// block-distributed PGAS arrays.
func (s *Session) Run(spec core.LaunchSpec) (*Result, error) {
	k := s.Prog.Kernel(spec.Kernel)
	if k == nil {
		return nil, fmt.Errorf("pgas: no kernel %q", spec.Kernel)
	}
	if len(spec.Args) != len(k.Params) {
		return nil, fmt.Errorf("pgas: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(spec.Args))
	}
	c := s.Cluster
	n := c.N()
	total := spec.Grid.Count()
	perRank := (total + n - 1) / n

	binds := map[int]cluster.Buffer{}
	argVals := make([]interp.Value, len(spec.Args))
	for i, a := range spec.Args {
		if a.IsBuf {
			binds[i] = *a.Buf
		} else {
			argVals[i] = a.Val
		}
	}

	counts := make([]localCounts, n)
	works := make([]machine.BlockWork, n)
	blocksOn := make([]int, n)
	gdx := spec.Grid.X

	global := writtenParams(k)
	err := c.RunParallel(func(rank int, conn transport.Conn) error {
		mem := &pgasMem{
			inner:  c.Mem(rank, binds),
			rank:   rank,
			n:      n,
			binds:  binds,
			global: global,
			policy: s.Policy,
			outbox: make([][]put, n),
		}
		mem.res.putsToOwner = make([]int64, n)
		lo := rank * perRank
		hi := min(lo+perRank, total)
		blocksOn[rank] = hi - lo
		l := &interp.Launch{Kernel: k, Grid: spec.Grid, Block: spec.Block, Args: argVals, Mem: mem}
		var work machine.BlockWork
		if lo < hi {
			// One Runner per rank: the kernel is validated and compiled once.
			r, err := interp.NewRunner(l)
			if err != nil {
				return err
			}
			for li := lo; li < hi; li++ {
				w, err := r.ExecBlock(li%gdx, li/gdx)
				if err != nil {
					return err
				}
				work.Add(w.BlockWork(spec.SIMDFraction))
			}
		}
		works[rank] = work
		counts[rank] = mem.res

		// Quiescence: exchange buffered puts (one batch per peer; the
		// batch carries res.remotePuts fine-grained operations).
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			if err := conn.Send(peer, 77, encodePuts(mem.outbox[peer])); err != nil {
				return err
			}
		}
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			data, err := conn.Recv(peer, 77)
			if err != nil {
				return err
			}
			if err := applyPuts(mem.inner, binds, data); err != nil {
				return err
			}
		}
		_, err := comm.Barrier(conn)
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	worst := 0.0
	recvByOwner := make([]int64, n)
	for rank := 0; rank < n; rank++ {
		res.RemotePuts += counts[rank].remotePuts
		res.RemoteGets += counts[rank].remoteGets
		res.LocalOps += counts[rank].localOps
		res.PutBytes += counts[rank].putBytes
		res.GetBytes += counts[rank].getBytes
		res.MaxRankPuts = max(res.MaxRankPuts, counts[rank].remotePuts)
		res.MaxRankGets = max(res.MaxRankGets, counts[rank].remoteGets)
		for o, p := range counts[rank].putsToOwner {
			recvByOwner[o] += p
		}

		var comp float64
		if blocksOn[rank] > 0 {
			per := works[rank].Scale(1 / float64(blocksOn[rank]))
			comp = c.Machine().PhaseTime(blocksOn[rank], per, s.Exec)
		}
		// Every global access pays the PGAS library software path; remote
		// ones additionally inject messages.
		net := c.Net()
		lc := counts[rank]
		commT := net.FineGrained(lc.remotePuts+lc.remoteGets, lc.putBytes+lc.getBytes) +
			float64(lc.localOps)*net.PerMsgCPUSec*localOpFactor
		if comp > res.CompSec {
			res.CompSec = comp
		}
		if commT > res.CommSec {
			res.CommSec = commT
		}
		if comp+commT > worst {
			worst = comp + commT
		}
	}
	for _, r := range recvByOwner {
		res.IncastPuts = max(res.IncastPuts, r)
	}
	// Remote puts must be absorbed by their owner's NIC: the busiest
	// owner's message processing serializes behind everything else (the
	// rank-0 incast of the naive migration).
	incastSec := float64(res.IncastPuts) * c.Net().NICPerMsgSec
	res.CommSec += incastSec
	res.TotalSec = worst + incastSec + c.Net().Barrier(n) + core.KernelLaunchOverheadSec
	return res, nil
}

// localOpFactor scales the PGAS library software path for owner-local
// accesses relative to a remote injection (UPC++-style local_team fast
// path).
const localOpFactor = 0.1

// Assemble reconstructs the logical contents of a distributed buffer by
// taking each element from its owner's replica (the D2H equivalent for the
// PGAS world).
func (s *Session) Assemble(b cluster.Buffer) []byte {
	n := s.Cluster.N()
	out := make([]byte, b.Bytes())
	if s.Policy == OwnerRank0 {
		copy(out, s.Cluster.Region(0, b))
		return out
	}
	chunk := (b.Count + n - 1) / n
	es := b.Elem.Size()
	for rank := 0; rank < n; rank++ {
		lo := rank * chunk
		hi := min(lo+chunk, b.Count)
		if lo >= hi {
			continue
		}
		copy(out[lo*es:hi*es], s.Cluster.Region(rank, b)[lo*es:hi*es])
	}
	return out
}
