package main

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/recovery"
	"cucc/internal/serve"
	"cucc/internal/simnet"
	"cucc/internal/suites"
)

// class is one kind of job a workload submits.  The ten class names are
// fixed: per-class layer rows (serve.run_ms_p50.<class>,
// replay.coverage_frac.<class>) are keyed by them.
type class struct {
	name string
	prog *suites.Program
	// nodes overrides the server-default cluster size (0 = tenant sets
	// nothing).
	nodes int
	// source marks a source-mode class: the job carries prog's mini-CUDA
	// text and reaches the IR engines; suite-mode jobs run the native.
	source bool
	// fresh appends a never-before-seen comment to the source, so the job
	// misses the daemon's source cache and the VM compile cache.
	fresh bool
	// tmpl is the source-mode request without ID, tenant or fresh suffix.
	tmpl serve.Request
	// want holds the oracle CRCs of every buffer argument (source mode).
	want []uint32
}

var classNames = []string{
	"small-VecAdd", "small-FIR", "small-Kmeans",
	"ir-Binomial", "ir-FIR", "ir-Conv2D", "ir-MatMul", "ir-fresh",
	"gather-n8", "gather-n2",
}

// newClass resolves a class name against the suite registry.  Source-mode
// classes get their request template here; their oracle CRCs are computed
// by setup (oracle), never taken from the engine under test.
func newClass(name string) (*class, error) {
	suite := func(prog string, nodes int) (*class, error) {
		p, ok := suites.ByName(prog)
		if !ok {
			return nil, fmt.Errorf("class %s: no suite program %q", name, prog)
		}
		return &class{name: name, prog: p, nodes: nodes}, nil
	}
	source := func(prog string, fresh bool) (*class, error) {
		c, err := suite(prog, 0)
		if err != nil {
			return nil, err
		}
		c.source, c.fresh = true, fresh
		c.tmpl = sourceRequest(c.prog)
		return c, nil
	}
	switch name {
	case "small-VecAdd":
		return suite("VecAdd", 0)
	case "small-FIR":
		return suite("FIR", 0)
	case "small-Kmeans":
		return suite("Kmeans", 0)
	case "ir-Binomial":
		return source("BinomialOption", false)
	case "ir-FIR":
		return source("FIR", false)
	case "ir-Conv2D":
		return source("Conv2D", false)
	case "ir-MatMul":
		return source("MatMul", false)
	case "ir-fresh":
		return source("BinomialOption", true)
	case "gather-n8":
		return suite("Transpose", 8)
	case "gather-n2":
		return suite("Transpose", 2)
	}
	return nil, fmt.Errorf("unknown class %q", name)
}

// sourceRequest turns a suite program into the source-mode request a tenant
// would write for it: the program's own source text, the Small-scale launch
// geometry and scalars, and every buffer filled with ones.
func sourceRequest(p *suites.Program) serve.Request {
	spec := p.Spec(p.Small)
	params := p.Compiled.Kernel(p.Kernel).Params
	req := serve.Request{
		Source: p.Source, Kernel: p.Kernel,
		GridX: spec.Grid.X, GridY: spec.Grid.Y,
		BlockX: spec.Block.X, BlockY: spec.Block.Y,
	}
	for i, a := range spec.Args {
		switch {
		case a.IsBuf:
			req.Args = append(req.Args, serve.ArgSpec{Kind: "buf", Elem: elemName(a.Buf.Elem), Count: a.Buf.Count, Fill: 1})
		case params[i].Elem.IsInteger():
			req.Args = append(req.Args, serve.ArgSpec{Kind: "int", Int: a.Val.I})
		default:
			req.Args = append(req.Args, serve.ArgSpec{Kind: "float", Float: a.Val.F})
		}
	}
	return req
}

func elemName(t kir.ScalarType) string {
	switch t {
	case kir.F32:
		return "f32"
	case kir.I32:
		return "i32"
	}
	return "u8"
}

func elemType(name string) kir.ScalarType {
	switch name {
	case "f32":
		return kir.F32
	case "i32":
		return kir.I32
	}
	return kir.U8
}

// freshSeq numbers fresh-source variants across the whole process, so no two
// requests ever carry the same variant, whatever phase or set-up round sent
// them.
var freshSeq atomic.Uint64

// freshSource returns src with a trailing comment no earlier call returned.
func freshSource(src string, seed int64) string {
	return fmt.Sprintf("%s// fresh %d-%d\n", src, seed, freshSeq.Add(1))
}

// request builds the wire request for one job of this class.  It sets only
// what a tenant must set; engine, collective, workers, deadline and recovery
// stay at the server's defaults.
func (c *class) request(tenant string, weight int, seed int64) *serve.Request {
	if !c.source {
		return &serve.Request{Tenant: tenant, Weight: weight, Program: c.prog.Name, Nodes: c.nodes}
	}
	req := c.tmpl
	req.Tenant, req.Weight = tenant, weight
	if c.fresh {
		req.Source = freshSource(req.Source, seed)
	}
	return &req
}

// verified reports whether a response proves the job's output correct:
// suite mode by StatusOK (the server ran the program's own checker), source
// mode by buffer CRCs equal to the oracle's.
func (c *class) verified(resp *serve.Response) bool {
	if resp.Status != serve.StatusOK {
		return false
	}
	return !c.source || slices.Equal(resp.BufCRCs, c.want)
}

// jobClusterConfig is the cluster serve/job.go builds for every job under a
// zero-valued serve.Config: the stage replay and the oracle must build the
// same one.
func jobClusterConfig(nodes int, reg *metrics.Registry) cluster.Config {
	return cluster.Config{
		Nodes:           nodes,
		Machine:         machine.Intel6226(),
		Net:             simnet.IB100(),
		MaxBytesPerNode: 256 << 20,
		Metrics:         reg,
		Recovery:        recovery.Policy{Enabled: true},
	}
}

// serverDefaultNodes is serve.Config's default job cluster size.
const serverDefaultNodes = 4

func (c *class) clusterNodes() int {
	if c.nodes > 0 {
		return c.nodes
	}
	return serverDefaultNodes
}

// sourceArgs allocates and fills a source-mode request's arguments the way
// serve/job.go does for ArgSpec{Fill: 1}.
func sourceArgs(c *cluster.Cluster, req *serve.Request) ([]core.Arg, []cluster.Buffer, error) {
	var args []core.Arg
	var bufs []cluster.Buffer
	for _, as := range req.Args {
		switch as.Kind {
		case "buf":
			b := c.Alloc(elemType(as.Elem), as.Count)
			var err error
			switch b.Elem {
			case kir.F32:
				err = c.WriteAllF32(b, filled(make([]float32, b.Count), float32(as.Fill)))
			case kir.I32:
				err = c.WriteAllI32(b, filled(make([]int32, b.Count), int32(as.Fill)))
			default:
				err = c.WriteAll(b, filled(make([]byte, b.Count), byte(as.Fill)))
			}
			if err != nil {
				return nil, nil, err
			}
			bufs = append(bufs, b)
			args = append(args, core.BufArg(b))
		case "int":
			args = append(args, core.IntArg(as.Int))
		default:
			args = append(args, core.FloatArg(as.Float))
		}
	}
	return args, bufs, nil
}

func filled[T any](s []T, v T) []T {
	for i := range s {
		s[i] = v
	}
	return s
}

func sourceSpec(req *serve.Request, args []core.Arg) core.LaunchSpec {
	return core.LaunchSpec{
		Kernel: req.Kernel,
		Grid:   interp.Dim3{X: req.GridX, Y: max(req.GridY, 1)},
		Block:  interp.Dim3{X: req.BlockX, Y: max(req.BlockY, 1)},
		Args:   args,
	}
}

func bufCRCs(c *cluster.Cluster, bufs []cluster.Buffer) []uint32 {
	crcs := make([]uint32, len(bufs))
	for i, b := range bufs {
		crcs[i] = crc32.ChecksumIEEE(c.Region(0, b))
	}
	return crcs
}

// oracle computes a source-mode class's expected buffer CRCs on a 1-node
// cluster with the reference interpreter.
func (c *class) oracle() error {
	cl, err := cluster.New(jobClusterConfig(1, nil))
	if err != nil {
		return err
	}
	defer cl.Close()
	prog, err := core.Compile(c.tmpl.Source)
	if err != nil {
		return err
	}
	args, bufs, err := sourceArgs(cl, &c.tmpl)
	if err != nil {
		return err
	}
	sess := core.NewSession(cl, prog)
	sess.Host.Engine = cluster.EngineInterp
	if _, err := sess.Launch(sourceSpec(&c.tmpl, args)); err != nil {
		return fmt.Errorf("class %s: oracle launch: %w", c.name, err)
	}
	c.want = bufCRCs(cl, bufs)
	return nil
}
