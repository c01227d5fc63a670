package suites

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
	"cucc/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/launch_fingerprints.golden")

const fingerprintsGolden = "testdata/launch_fingerprints.golden"

// fpCase is one launch configuration TestLaunchFingerprints hashes.
type fpCase struct {
	p                           *Program
	nodes, workers              int
	collective                  string // csched.ParseChoice syntax
	remainder                   core.RemainderStrategy
	trivial, ir, estimate, kill bool
	// interp runs the IR path on the reference interpreter instead of the
	// default register machine.
	interp bool
}

func (fc fpCase) String() string {
	coll := fc.collective
	if coll == "" {
		coll = "default"
	}
	rem := "callback"
	if fc.remainder == core.RemainderImbalanced {
		rem = "imbalanced"
	}
	s := fmt.Sprintf("%s/n%d/%s/%s/w%d", fc.p.Name, fc.nodes, coll, rem, fc.workers)
	for _, f := range []struct {
		on   bool
		name string
	}{{fc.trivial, "trivial"}, {fc.ir, "ir"}, {fc.estimate, "estimate"}, {fc.kill, "kill"}, {fc.interp, "interp"}} {
		if f.on {
			s += "/" + f.name
		}
	}
	return s
}

// fingerprintCases is the launch matrix: every program on 1, 3 and 4 nodes
// under the default collective, ring+overlap and auto+overlap, both
// remainder strategies, one and three pool workers, and Estimate; plus
// ForceTrivial, the IR engine, and a rank kill recovered on four nodes; plus
// the reference interpreter on one and four nodes, one and three workers.
func fingerprintCases() []fpCase {
	var cases []fpCase
	for _, p := range allWithVecAdd() {
		for _, n := range []int{1, 3, 4} {
			for _, coll := range []string{"", "+overlap", "auto+overlap"} {
				for _, rem := range []core.RemainderStrategy{core.RemainderCallback, core.RemainderImbalanced} {
					base := fpCase{p: p, nodes: n, workers: 1, collective: coll, remainder: rem}
					pool, est := base, base
					pool.workers = 3
					est.estimate = true
					cases = append(cases, base, pool, est)
				}
				if coll != "auto+overlap" {
					cases = append(cases, fpCase{p: p, nodes: n, workers: 3, collective: coll, ir: true})
				}
			}
			// A trivial launch reads neither the collective nor the
			// remainder strategy.
			cases = append(cases,
				fpCase{p: p, nodes: n, workers: 1, trivial: true},
				fpCase{p: p, nodes: n, workers: 3, trivial: true},
				fpCase{p: p, nodes: n, workers: 1, trivial: true, estimate: true})
		}
		for _, coll := range []string{"", "+overlap"} {
			cases = append(cases, fpCase{p: p, nodes: 4, workers: 1, collective: coll, kill: true})
		}
		for _, n := range []int{1, 4} {
			for _, w := range []int{1, 3} {
				cases = append(cases, fpCase{p: p, nodes: n, workers: w, interp: true})
			}
		}
	}
	return cases
}

// fingerprint runs one case and hashes what it leaves behind: Stats, and for
// a launch also the Chrome trace, the journal, the deterministic metrics and
// every node heap.  A rank-kill case hashes Stats and heaps only, because
// which peer's abort text lands first is a race.
func fingerprint(t *testing.T, fc fpCase) string {
	t.Helper()
	choice, err := csched.ParseChoice(fc.collective)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	sc := obs.Scope{J: obs.NewJournal(0), Tenant: "fp", Job: 1}
	cfg := cluster.Config{Nodes: fc.nodes, Machine: machine.Intel6226(), Net: simnet.IB100(), Metrics: reg, Journal: sc}
	if fc.kill {
		cfg.RecvTimeout = 5 * time.Second
		cfg.Fault = killAt(2)
		cfg.Recovery = recovery.Policy{Enabled: true}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inst, err := fc.p.Build(c, fc.p.Small)
	if err != nil {
		t.Fatal(err)
	}
	inst.Spec.Remainder = fc.remainder
	inst.Spec.ForceTrivial = fc.trivial
	inst.Spec.UseInterp = fc.ir || fc.interp
	sess := core.NewSession(c, fc.p.Compiled)
	sess.Verify = true
	sess.Host.Workers = fc.workers
	if fc.interp {
		sess.Host.Engine = cluster.EngineInterp
	}
	sess.Collective = choice
	sess.Trace = trace.New()
	sess.Obs = sc

	h := sha256.New()
	sum := func() string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }
	if fc.estimate {
		stats, err := sess.Estimate(inst.Spec)
		if err != nil {
			t.Fatalf("%s: %v", fc, err)
		}
		fmt.Fprintf(h, "%+v\n", *stats)
		return sum()
	}
	stats, err := sess.Launch(inst.Spec)
	if err != nil {
		t.Fatalf("%s: %v", fc, err)
	}
	if err := inst.Check(); err != nil {
		t.Fatalf("%s: %v", fc, err)
	}
	fmt.Fprintf(h, "%+v\n", *stats)
	if !fc.kill {
		ct, err := sess.Trace.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ct)
		js, err := sc.J.JSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
		hashMetrics(h, reg.Snapshot())
	}
	all := cluster.Buffer{Off: 0, Elem: kir.U8, Count: c.BytesPerNode()}
	for r := 0; r < fc.nodes; r++ {
		h.Write(c.Region(r, all))
	}
	return sum()
}

// hashMetrics writes the run-determined part of a snapshot: every counter,
// and every histogram's count, plus the sum and buckets of the simulated-time
// ones.  Wall-time sums and gauges vary between identical runs.
func hashMetrics(w io.Writer, s metrics.Snapshot) {
	for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
		fmt.Fprintf(w, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range slices.Sorted(maps.Keys(s.Histograms)) {
		hv := s.Histograms[name]
		if strings.HasSuffix(name, ".sim_seconds") {
			fmt.Fprintf(w, "%s %d %v %v\n", name, hv.Count, hv.Sum, hv.Buckets)
		} else {
			fmt.Fprintf(w, "%s %d\n", name, hv.Count)
		}
	}
}

// TestLaunchFingerprints pins everything a launch leaves behind across the
// fingerprintCases matrix, one "name hash" line per case.  A refactor of the
// launch path must leave every line unchanged; -update rewrites the file for
// a change that is meant to move a figure, and the diff names the cases it
// moved.
func TestLaunchFingerprints(t *testing.T) {
	var got strings.Builder
	for _, fc := range fingerprintCases() {
		fmt.Fprintf(&got, "%s %s\n", fc, fingerprint(t, fc))
	}
	if *update {
		if err := os.WriteFile(fingerprintsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	for _, line := range gotLines {
		name, sum, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in %s", name, fingerprintsGolden)
		} else if w != sum {
			t.Errorf("%s: fingerprint %s, golden %s", name, sum, w)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: in %s but no longer run", name, fingerprintsGolden)
	}
}
