package main

import (
	"bytes"
	"fmt"
	"time"

	"cucc/internal/analysis"
	"cucc/internal/cluster"
	"cucc/internal/comm"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/kir"
	"cucc/internal/lang"
	"cucc/internal/recovery"
	"cucc/internal/serve"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/transport"
	"cucc/internal/vm"
)

// The standalone probes time one public function of one layer, alone on the
// machine, with fixed inputs: they do not depend on the workload or the
// seed, so every traced run reports them and a change to a layer shows in
// its row whichever workload is being looked at.

// timeMedian runs fn reps times under span name and returns the median
// duration.
func timeMedian(tr *tracer, name string, reps int, fn func() error) (time.Duration, error) {
	d := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := tr.begin(0, name)
		t0 := time.Now()
		err := fn()
		el := time.Since(t0)
		tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		d = append(d, float64(el))
	}
	return time.Duration(median(d)), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeCompile times the three compile layers on the source ir-fresh jobs
// carry (BinomialOption's).
func probeCompile(tr *tracer, set func(string, float64)) error {
	p, _ := suites.ByName("BinomialOption")
	var mod *kir.Module
	d, err := timeMedian(tr, "lang.parse", 50, func() (err error) {
		mod, err = lang.Parse(p.Source)
		return err
	})
	if err != nil {
		return err
	}
	set("lang.parse_us", us(d))
	d, _ = timeMedian(tr, "analysis.analyze", 50, func() error {
		analysis.AnalyzeModule(mod)
		return nil
	})
	set("analysis.analyze_us", us(d))
	var ck *vm.CompiledKernel
	d, err = timeMedian(tr, "vm.compile", 50, func() (err error) {
		ck, err = vm.Compile(mod.Kernel(p.Kernel))
		return err
	})
	if err != nil {
		return err
	}
	set("vm.compile_us", us(d))
	set("vm.instrs", float64(ck.NumInstructions()))
	return nil
}

// engineProbeBudget bounds the repetitions of one engine x program probe.
const engineProbeBudget = 400 * time.Millisecond

// probeLaunch times Session.Launch alone — cluster and buffers are built
// outside the timed call — on 1 node with 1 worker.
func probeLaunch(tr *tracer, name string, p *suites.Program, eng cluster.Engine, useInterp bool) (time.Duration, error) {
	var d []float64
	start := time.Now()
	for len(d) < 3 || (len(d) < 15 && time.Since(start) < engineProbeBudget) {
		c, err := paperCluster(1)
		if err != nil {
			return 0, err
		}
		inst, err := p.Build(c, p.Small)
		if err != nil {
			c.Close()
			return 0, err
		}
		sess := core.NewSession(c, p.Compiled)
		sess.Host.Workers, sess.Host.Engine = 1, eng
		spec := inst.Spec
		spec.UseInterp = useInterp
		s := tr.begin(0, name)
		t0 := time.Now()
		_, err = sess.Launch(spec)
		el := time.Since(t0)
		tr.end(s)
		c.Close()
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		d = append(d, float64(el))
	}
	return time.Duration(median(d)), nil
}

var (
	engineProbePrograms = []string{"FIR", "Conv2D", "MatMul", "BinomialOption"}
	nativeProbePrograms = []string{"VecAdd", "FIR", "Kmeans", "Transpose"}
)

func probeEngines(tr *tracer, set func(string, float64)) error {
	for _, eng := range simEngines {
		for _, name := range engineProbePrograms {
			p, _ := suites.ByName(name)
			row := eng.String() + ".exec_ms." + name
			d, err := probeLaunch(tr, row, p, eng, true)
			if err != nil {
				return err
			}
			set(row, ms(d))
		}
	}
	for _, name := range nativeProbePrograms {
		p, _ := suites.ByName(name)
		row := "suites.native_exec_ms." + name
		d, err := probeLaunch(tr, row, p, cluster.EngineDefault, false)
		if err != nil {
			return err
		}
		set(row, ms(d))
	}
	return nil
}

// gatherShape is one use of the Allgather layer by the gather workload: 1 MiB
// gathered in place from n ranks.
type gatherShape struct {
	name  string
	ranks int
}

var gatherShapes = []gatherShape{{"wide", 8}, {"narrow", 2}}

const gatherBytes = 1 << 20

// probeCollectives times the hand-written ring (what a tenant who sets
// nothing gets) and the schedule compiler's pick for the two shapes, over
// cluster.RunParallel on the in-process transport.
func probeCollectives(tr *tracer, set func(string, float64)) error {
	for _, sh := range gatherShapes {
		c, err := paperCluster(sh.ranks)
		if err != nil {
			return err
		}
		buf := c.Alloc(kir.U8, gatherBytes)
		chunk := gatherBytes / sh.ranks
		d, err := timeMedian(tr, "comm.allgather_ring."+sh.name, 30, func() error {
			return c.RunParallel(func(rank int, conn transport.Conn) error {
				_, err := comm.AllgatherRing(conn, c.Region(rank, buf), chunk)
				return err
			})
		})
		if err != nil {
			c.Close()
			return err
		}
		set("comm.allgather_ring_ms."+sh.name, ms(d))

		rq := csched.Request{Ranks: sh.ranks, RankBytes: filled(make([]int64, sh.ranks), int64(chunk)),
			Model: simnet.IB100(), Choice: csched.Choice{Algo: csched.AlgoAuto}}
		var sel *csched.Selection
		sd, err := timeMedian(tr, "csched.select."+sh.name, 50, func() (err error) {
			sel, err = csched.Select(rq)
			return err
		})
		if err != nil {
			c.Close()
			return err
		}
		if sh.name == "wide" {
			set("csched.select_us", us(sd))
		}
		d, err = timeMedian(tr, "csched.execute."+sh.name, 30, func() error {
			return c.RunParallel(func(rank int, conn transport.Conn) error {
				_, err := csched.Execute(conn, c.Region(rank, buf), sel.Offs, sel.Schedule)
				return err
			})
		})
		c.Close()
		if err != nil {
			return err
		}
		set("csched.execute_ms."+sh.name, ms(d))
	}
	return nil
}

// probeRecovery times one barrier checkpoint copy of a 1 MiB region and its
// restore into one node.
func probeRecovery(tr *tracer, set func(string, float64)) {
	heap := make([]byte, gatherBytes)
	regions := []recovery.Region{{Off: 0, Len: gatherBytes}}
	var cp *recovery.Checkpoint
	d, _ := timeMedian(tr, "recovery.capture", 50, func() error {
		cp = recovery.Capture(recovery.CursorStart, 0, regions, func(r recovery.Region) []byte { return heap[r.Off : r.Off+r.Len] })
		return nil
	})
	set("recovery.capture_ms", ms(d))
	d, _ = timeMedian(tr, "recovery.restore", 50, func() error {
		cp.Restore(func(r recovery.Region, data []byte) { copy(heap[r.Off:r.Off+r.Len], data) })
		return nil
	})
	set("recovery.restore_ms", ms(d))
}

// probeFrames times serve.WriteFrame / serve.ReadFrame on the response and
// request frames recorded during the pass, one pair per class; the rows are
// the medians over classes.
func probeFrames(tr *tracer, samples map[string]framePair, set func(string, float64)) error {
	var enc, dec []float64
	for _, fp := range samples {
		var buf bytes.Buffer
		d, err := timeMedian(tr, "serve.encode", 200, func() error {
			buf.Reset()
			return serve.WriteFrame(&buf, &fp.resp)
		})
		if err != nil {
			return err
		}
		enc = append(enc, us(d))
		var reqFrame bytes.Buffer
		if err := serve.WriteFrame(&reqFrame, &fp.req); err != nil {
			return err
		}
		raw := reqFrame.Bytes()
		d, err = timeMedian(tr, "serve.decode", 200, func() error {
			var req serve.Request
			return serve.ReadFrame(bytes.NewReader(raw), &req)
		})
		if err != nil {
			return err
		}
		dec = append(dec, us(d))
	}
	set("serve.encode_us", median(enc))
	set("serve.decode_us", median(dec))
	return nil
}

// probeAll runs every workload-independent probe.
func probeAll(tr *tracer, set func(string, float64)) error {
	if err := probeCompile(tr, set); err != nil {
		return err
	}
	if err := probeEngines(tr, set); err != nil {
		return err
	}
	if err := probeCollectives(tr, set); err != nil {
		return err
	}
	probeRecovery(tr, set)
	sim, err := estimateAll()
	if err != nil {
		return err
	}
	for _, m := range sim.simMetrics() {
		set(m.name, m.value)
	}
	return nil
}
