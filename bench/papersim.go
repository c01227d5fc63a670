package main

import (
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/machine"
	"cucc/internal/simnet"
	"cucc/internal/suites"
)

// simNodes are the cluster sizes paper-sim estimates at.
var simNodes = []int{1, 8, 32}

// simEngines are the engines paper-sim really executes every program under.
var simEngines = []cluster.Engine{cluster.EngineInterp, cluster.EngineVM, cluster.EngineVMLanes}

// simExecNodes is the cluster size of the really-executed launches.
const simExecNodes = 4

func paperCluster(nodes int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100()})
}

// execProgram builds p at Small scale on a fresh cluster, launches it on the
// IR engine eng (never the native), checks it against the program's own Go
// reference and returns node 0's CRC of every buffer argument.  A buffer
// that differs between nodes is an error.
func execProgram(p *suites.Program, nodes int, eng cluster.Engine, tr *tracer, parent int) ([]uint32, error) {
	t := tr.begin(parent, "cluster.new")
	c, err := paperCluster(nodes)
	tr.end(t)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	t = tr.begin(parent, "cluster.fill")
	inst, err := p.Build(c, p.Small)
	tr.end(t)
	if err != nil {
		return nil, err
	}
	sess := core.NewSession(c, p.Compiled)
	sess.Host.Engine = eng
	spec := inst.Spec
	spec.UseInterp = true
	t = tr.begin(parent, "core.launch")
	_, err = sess.Launch(spec)
	tr.end(t)
	if err != nil {
		return nil, err
	}
	t = tr.begin(parent, "cluster.check")
	defer tr.end(t)
	if err := inst.Check(); err != nil {
		return nil, err
	}
	var crcs []uint32
	for _, a := range spec.Args {
		if !a.IsBuf {
			continue
		}
		if err := c.VerifyIdentical(*a.Buf); err != nil {
			return nil, err
		}
		crcs = append(crcs, crc32.ChecksumIEEE(c.Region(0, *a.Buf)))
	}
	return crcs, nil
}

// simTable is the paper's clock: Estimate(...).TotalSec at paper scale for
// the eight evaluation programs at each of simNodes, and the communication
// share at the largest size.
type simTable struct {
	total     map[string][]float64 // program -> TotalSec per simNodes entry
	commShare float64              // mean CommSec/TotalSec at the largest size
}

func estimateAll() (*simTable, error) {
	t := &simTable{total: map[string][]float64{}}
	var shares []float64
	for _, p := range suites.All() {
		for _, n := range simNodes {
			c, err := paperCluster(n)
			if err != nil {
				return nil, err
			}
			st, err := core.NewSession(c, p.Compiled).Estimate(p.Spec(p.Default))
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("estimate %s at %d nodes: %w", p.Name, n, err)
			}
			t.total[p.Name] = append(t.total[p.Name], st.TotalSec)
			if n == simNodes[len(simNodes)-1] {
				shares = append(shares, st.CommSec/st.TotalSec)
			}
		}
	}
	t.commShare = mean(shares)
	return t, nil
}

func (t *simTable) equal(o *simTable) bool {
	for name, v := range t.total {
		for i := range v {
			if v[i] != o.total[name][i] {
				return false
			}
		}
	}
	return t.commShare == o.commShare
}

// geomeans returns the geomean TotalSec (ms) at the largest size and the
// geomean scaling efficiency T(1) / (N * T(N)) there.
func (t *simTable) geomeans() (totalMs, eff float64) {
	last := len(simNodes) - 1
	var totals, effs []float64
	for _, v := range t.total {
		totals = append(totals, v[last]*1e3)
		effs = append(effs, v[0]/(float64(simNodes[last])*v[last]))
	}
	return geomean(totals), geomean(effs)
}

// simMetrics are the simulated-clock rows.  Their unit is sim_ms, not ms:
// they are read off the model, identical on every run by design.
func (t *simTable) simMetrics() []metric {
	totalMs, eff := t.geomeans()
	out := []metric{
		{"sim_total_geomean_ms", totalMs, "sim_ms"},
		{"sim_scaling_eff_32n", eff, "frac"},
		{"simnet.comm_share_32n", t.commShare, "frac"},
	}
	for _, p := range suites.All() {
		out = append(out, metric{"simnet.total_ms." + p.Name + ".32n", t.total[p.Name][len(simNodes)-1] * 1e3, "sim_ms"})
	}
	return out
}

// paperSetup computes the 1-node interpreter oracle of every registry
// program: the CRCs every engine and cluster size must reproduce bitwise.
func paperSetup() (map[string][]uint32, error) {
	constructSuite()
	oracle := map[string][]uint32{}
	for _, p := range suites.Registry() {
		crcs, err := execProgram(p, 1, cluster.EngineInterp, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", p.Name, err)
		}
		oracle[p.Name] = crcs
	}
	return oracle, nil
}

// paperPass runs whole rounds — the estimate table, then every registry
// program under every engine — until seconds have passed.
type paperPass struct {
	attempted, failed, wrong int
	lat                      []float64            // ms per verified launch
	byKind                   map[string][]float64 // the same, per engine x program
	wall, cpu                time.Duration
	sim                      *simTable
}

func runPaperPass(oracle map[string][]uint32, seconds float64, tr *tracer) (*paperPass, error) {
	ps := &paperPass{byKind: map[string][]float64{}}
	start, cpu0 := time.Now(), cpuTime()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		sim, err := estimateAll()
		if err != nil {
			return nil, err
		}
		if ps.sim == nil {
			ps.sim = sim
		} else if !sim.equal(ps.sim) {
			ps.wrong++ // the simulated clock must not depend on the run
		}
		for _, eng := range simEngines {
			for _, p := range suites.Registry() {
				ps.attempted++
				kind := eng.String() + ":" + p.Name
				root := tr.begin(0, "launch:"+kind)
				t0 := time.Now()
				crcs, err := execProgram(p, simExecNodes, eng, tr, root)
				d := ms(time.Since(t0))
				tr.end(root)
				if err != nil || !equalCRCs(crcs, oracle[p.Name]) {
					ps.failed++
					fmt.Printf("  paper-sim: %s on %s FAILED: err=%v crcs=%v want %v\n", p.Name, eng, err, crcs, oracle[p.Name])
					continue
				}
				ps.lat = append(ps.lat, d)
				ps.byKind[kind] = append(ps.byKind[kind], d)
			}
		}
	}
	ps.wall, ps.cpu = time.Since(start), cpuTime()-cpu0
	return ps, nil
}

// medianKind is the median launch kind's median latency.  The launches are
// of 27 fixed kinds whose times span two orders of magnitude, and the pooled
// median falls in a sparse stretch between kinds, where it moves by 9% from
// run to run; one kind's own median moves by about 1%.
func (ps *paperPass) medianKind() float64 {
	var medians []float64
	for _, v := range ps.byKind {
		medians = append(medians, median(v))
	}
	return median(medians)
}

// equalCRCs reports whether got matches the oracle; no CRCs at all is a
// failure, not a vacuous match.
func equalCRCs(got, want []uint32) bool { return len(got) > 0 && slices.Equal(got, want) }

// runPaperSim is the paper-sim workload.  Its ops are the really-executed,
// bitwise-verified launches; its simulated figures are layer rows.
func runPaperSim(sp *spec, seed int64, seconds float64, trace int) (*result, error) {
	var oracle map[string][]uint32
	setupS, err := medianSetup(func() (err error) {
		oracle, err = paperSetup()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	if trace != 0 {
		return runPaperSimTraced(sp, oracle, seed, seconds)
	}
	ps, err := runPaperPass(oracle, seconds, nil)
	if err != nil {
		return nil, err
	}
	ok := float64(len(ps.lat))
	lat := sorted(ps.lat)
	return &result{
		workload:  "paper-sim",
		attempted: ps.attempted, failed: ps.failed, wrong: ps.wrong,
		metrics: []metric{
			{"setup_s", setupS, "s"},
			{"latency_p50_ms", ps.medianKind(), "ms"},
			{"latency_p99_ms", percentile(lat, 0.99), "ms"},
			{"throughput_jobs_s", ok / ps.wall.Seconds(), "jobs/s"},
			{"cpu_ms_per_job", ms(ps.cpu) / ok, "ms"},
		},
		notes: append([]metric{{"latency_samples", ok, "count"}}, ps.sim.simMetrics()...),
	}, nil
}
