// Command cuccload is the open-loop load generator for a running cuccd: it
// offers jobs at target Poisson rates (arrivals paced by the schedule, never
// by responses — the discipline that exposes queueing collapse instead of
// hiding it behind coordinated omission) and reports sustained QPS, latency
// quantiles, and reject rate per sweep point.
//
// Usage:
//
//	cuccload -rates 50,200                               # drive cuccd on localhost:9091
//	cuccload -addr host:9091 -rates 25,100,400 -jobs 200
//	cuccload -mix tenant-a:VecAdd:3,tenant-b:FIR:1       # weighted tenant mix
//
// Each sweep row reports the exact sample quantiles (p50/p99/p999) plus
// the bucket-resolution histogram quantiles (hp50/hp90/hp99 — upper bound
// of the log2 bucket, the same estimator the /slo page uses).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cucc/internal/serve"
	"cucc/internal/throughput"
)

func main() {
	addr := flag.String("addr", "localhost:9091", "cuccd address to drive")
	ratesFlag := flag.String("rates", "50,200", "comma-separated target rates (jobs/sec) for the saturation sweep")
	jobs := flag.Int("jobs", 60, "arrivals offered per sweep point")
	mixFlag := flag.String("mix", "tenant-a:VecAdd:1,tenant-b:FIR:1", "tenant mix as tenant:program:share[,...]")
	seed := flag.Int64("seed", 1, "seed for the arrival schedule and tenant draws")
	deadline := flag.Duration("deadline", 10*time.Second, "per-job deadline passed with every submission (0 = server default)")
	flag.Parse()

	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "bad -jobs %d (want at least 1)\n", *jobs)
		os.Exit(2)
	}
	rates, err := parseRates(*ratesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	client, err := serve.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer client.Close()

	base := throughput.LoadConfig{
		Jobs:     *jobs,
		Mix:      mix,
		Seed:     *seed,
		Deadline: *deadline,
	}
	results := throughput.SweepLoad(clientSubmitter{client}, base, rates)

	fmt.Printf("%8s %8s %10s %10s %10s %10s %9s %9s %9s %8s %8s\n",
		"rate/s", "offered", "qps", "p50 ms", "p99 ms", "p999 ms",
		"hp50 ms", "hp90 ms", "hp99 ms", "reject", "errors")
	for _, r := range results {
		fmt.Printf("%8.0f %8d %10.1f %10.2f %10.2f %10.2f %9.2f %9.2f %9.2f %7.1f%% %8d\n",
			r.RatePerSec, r.Offered, r.QPS, r.P50Ms, r.P99Ms, r.P999Ms,
			r.Latency.P50()*1e3, r.Latency.P90()*1e3, r.Latency.P99()*1e3,
			r.RejectRate*100, r.Errors)
	}
}

// clientSubmitter adapts a serve.Client to the load generator's Submitter
// interface: every offered job goes end to end through the wire protocol.
type clientSubmitter struct {
	client *serve.Client
}

func (cs clientSubmitter) Submit(tenant, program string, deadline time.Duration) throughput.JobResult {
	t0 := time.Now()
	req := &serve.Request{Tenant: tenant, Program: program}
	if deadline > 0 {
		req.DeadlineMs = int(deadline / time.Millisecond)
	}
	resp, err := cs.client.Do(req)
	lat := time.Since(t0).Seconds()
	if err != nil {
		return throughput.JobResult{LatencySec: lat}
	}
	return throughput.JobResult{
		OK:         resp.Status == serve.StatusOK,
		Rejected:   resp.Status == serve.StatusRejected,
		LatencySec: lat,
	}
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q (want a positive number)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}

func parseMix(s string) ([]throughput.TenantMix, error) {
	var out []throughput.TenantMix
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad mix entry %q (want tenant:program:share)", item)
		}
		share, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || share <= 0 {
			return nil, fmt.Errorf("bad share in %q (want a positive number)", item)
		}
		out = append(out, throughput.TenantMix{
			Tenant:  parts[0],
			Program: parts[1],
			Share:   share,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return out, nil
}
