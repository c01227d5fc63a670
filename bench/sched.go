package main

import (
	"math/rand"
	"time"
)

// tenant is one submitting tenant and its declared scheduling weight.
type tenant struct {
	name   string
	weight int
}

// workload is one named traffic mix.  The four names are fixed: later issues
// cite them.  BENCHMARK.json and README.md say why each was chosen.
type workload struct {
	name string
	// mix is one cycle of class names; a class's share is its count here.
	mix     []string
	tenants []tenant
	// openRate > 0 gives the workload an open-loop phase at that Poisson
	// rate (jobs/s) for openShare of the run, before the closed-loop phase.
	openRate  float64
	openShare float64
	// limitMs is the latency limit of the open-loop phase, from due time.
	limitMs float64
}

var workloads = []*workload{
	{
		name: "serve-small",
		mix:  []string{"small-VecAdd", "small-VecAdd", "small-FIR", "small-Kmeans"},
		tenants: []tenant{
			{"a", 2}, {"b", 1}, {"c", 1},
		},
		openRate: 400, openShare: 0.65, limitMs: 20,
	},
	{
		name: "source-ir",
		mix: []string{
			"ir-Binomial", "ir-Binomial", "ir-Binomial",
			"ir-FIR", "ir-FIR", "ir-FIR",
			"ir-Conv2D", "ir-Conv2D", "ir-MatMul", "ir-fresh",
		},
		tenants: []tenant{{"a", 1}},
	},
	{
		name:    "gather",
		mix:     []string{"gather-n8", "gather-n8", "gather-n2"},
		tenants: []tenant{{"a", 1}},
	},
	// paper-sim sends no load: papersim.go estimates at paper scale and
	// checks every engine x program bitwise against a 1-node interpreter run.
	{name: "paper-sim"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// arrival is one pre-drawn job: when it is due (open loop only), and which
// class and tenant it belongs to, as indices into the run's tables.
type arrival struct {
	due           time.Duration
	class, tenant int
}

// drawSchedule pre-draws n arrivals from rng.  Classes follow one shuffled
// cycle of the mix, repeated, so every run sees the mix's exact shares;
// tenants are weighted picks.  With rate > 0 the arrivals get Poisson due
// times at that rate and the schedule ends at the first one due after dur
// (n is ignored); otherwise due stays zero.
func drawSchedule(rng *rand.Rand, mixLen int, tenants []tenant, n int, rate float64, dur time.Duration) []arrival {
	cycle := rng.Perm(mixLen)
	total := 0
	for _, t := range tenants {
		total += t.weight
	}
	pickTenant := func() int {
		x := rng.Intn(total)
		for i, t := range tenants {
			if x -= t.weight; x < 0 {
				return i
			}
		}
		return 0
	}
	var out []arrival
	due := time.Duration(0)
	for i := 0; rate > 0 || i < n; i++ {
		if rate > 0 {
			due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if due > dur {
				break
			}
		}
		out = append(out, arrival{due: due, class: cycle[i%mixLen], tenant: pickTenant()})
	}
	return out
}
