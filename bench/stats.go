package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of sorted values;
// 0 for an empty slice.  (metrics.PercentileSorted ranks by truncated index,
// which reads one sample lower; the ten-samples-beyond rule below is stated
// for nearest rank.)
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailSteps are the percentiles a timing may be reported at, each with the
// share of samples beyond it in parts per 10000 (integers, so the ten-sample
// rule is exact).
var tailSteps = []struct {
	q      float64
	beyond int
}{{0.50, 5000}, {0.90, 1000}, {0.95, 500}, {0.99, 100}, {0.999, 10}, {0.9999, 1}}

// tailPercentile is the highest step with at least ten samples beyond it:
// the furthest into the tail that n samples can support.  With fewer than
// twenty samples nothing beyond the median is supported.
func tailPercentile(n int) float64 {
	best := tailSteps[0].q
	for _, st := range tailSteps {
		if n*st.beyond >= 10*10000 {
			best = st.q
		}
	}
	return best
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func geomean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// phaseSummary condenses one load phase.
type phaseSummary struct {
	attempted, failed int
	// latencies of verified-OK ops in ms, sorted.
	lat []float64
	// withinLimit counts verified-OK ops answered within limitMs.
	withinLimit int
	// byStatus counts answered-but-not-ok ops per status, plus
	// "unanswered".
	byStatus map[string]int
}

// summarize applies the failure accounting: an op is good only if it was
// answered, StatusOK and verified; everything else — rejected, error, CRC
// mismatch, never answered — is failed and misses the latency limit.
func summarize(ops []op, open bool, limitMs float64) phaseSummary {
	s := phaseSummary{attempted: len(ops), byStatus: map[string]int{}}
	for i := range ops {
		o := &ops[i]
		switch {
		case !o.answered:
			s.failed++
			s.byStatus["unanswered"]++
		case !o.ok:
			s.failed++
			s.byStatus[o.status]++
		default:
			l := ms(o.latency(open))
			s.lat = append(s.lat, l)
			if l <= limitMs {
				s.withinLimit++
			}
		}
	}
	slices.Sort(s.lat)
	return s
}

// field extracts one per-op quantity of the verified-OK ops, sorted.
func field(ops []op, f func(*op) float64) []float64 {
	var out []float64
	for i := range ops {
		if ops[i].ok {
			out = append(out, f(&ops[i]))
		}
	}
	slices.Sort(out)
	return out
}
