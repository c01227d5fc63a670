// Package metrics is the unified observability layer of the runtime: a
// stdlib-only registry of counters, gauges, and fixed-bucket log-scale
// histograms that every layer of the stack (transport, comm, core, vm)
// reports into.
//
// Two invariants govern the design, mirroring the worker-pool and engine
// work that preceded it:
//
//  1. Instrumentation never moves a simulated figure.  Metrics record what
//     happened; they are forbidden from feeding back into block partitioning,
//     modeled phase times, or collective cost.  A suites-level test runs the
//     evaluation programs with metrics fully enabled and with a nil registry
//     and asserts bitwise-identical node memories and identical Stats.
//
//  2. A disabled registry costs (near) zero.  Every method is nil-safe: a
//     nil *Registry hands out nil *Counter/*Gauge/*Histogram handles whose
//     methods are a nil check and a return, so instrumented hot paths need
//     no conditional plumbing and BenchmarkEngines stays within noise of the
//     uninstrumented runtime.
//
// Counters are lock-sharded (striped across padded cache lines, the shard
// picked from the goroutine's stack address) so concurrent writers — one
// goroutine per simulated rank, times the intra-node worker pool — do not
// serialize on one cache line.  The hot-path operations (Counter.Add,
// Gauge.Set, Histogram.Observe) are allocation-free; only handle creation
// (Registry.Counter et al.) takes the registry lock.
//
// Snapshots are deterministic: Snapshot sorts metric names, so Table and
// JSON renderings of equal registry states are byte-identical, and
// Snapshot.Delta supports per-launch (or per-figure) accounting windows.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numShards is the stripe count of a Counter (power of two).
const numShards = 8

// shardIndex picks a stripe from the address of a stack variable: cheap,
// allocation-free, and distinct across concurrently running goroutines
// (their stacks live in different allocations).
func shardIndex() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 10 & (numShards - 1))
}

// stripe is one padded counter shard; the padding keeps adjacent shards on
// separate cache lines so concurrent Adds do not false-share.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing, lock-sharded counter.
type Counter struct {
	shards [numShards]stripe
}

// Add increments the counter by n.  Nil-safe and allocation-free.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the summed count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a last-value-wins float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.  Nil-safe and allocation-free.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// numBuckets is the fixed histogram resolution: powers of two from 2^-30
// (~1ns when observing seconds) up to 2^33, clamped at the ends.
const numBuckets = 64

// bucketExpBias maps exponent -30 to bucket 0.
const bucketExpBias = 30

// bucketIndex returns the log2 bucket of v.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	// v = frac * 2^exp with frac in [0.5, 1), so floor(log2 v) = exp-1.
	_, exp := math.Frexp(v)
	idx := exp - 1 + bucketExpBias
	if idx < 0 {
		return 0
	}
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketUpperBound returns the inclusive upper bound of bucket i.
func bucketUpperBound(i int) float64 {
	return math.Ldexp(1, i-bucketExpBias+1)
}

// Histogram counts observations into fixed log-scale buckets and tracks
// their count and sum.  Observe is lock-free and allocation-free.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.  Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry holds named metrics.  All methods are safe for concurrent use
// and nil-safe: every method on a nil *Registry is a no-op (returning nil
// handles), which is how "metrics disabled" is spelled throughout the
// runtime.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() float64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.  Callers on hot paths should resolve the handle once and reuse
// it.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a gauge computed at snapshot time —
// the bridge for subsystems that keep their own counters (vm's compile
// cache, transport fault injection).  No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns (creating if needed) the named histogram; nil on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Bucket is one non-empty histogram bucket in a snapshot: Count samples at
// most UpperBound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistValue is a histogram's state in a snapshot.
type HistValue struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry's values.  Maps marshal
// with sorted keys and bucket slices are in bound order, so the JSON (and
// Table) renderings of equal states are byte-identical.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]float64   `json:"gauges"`
	Histograms map[string]HistValue `json:"histograms"`
}

// Snapshot captures the registry's current values (a zero Snapshot on a
// nil registry).  GaugeFuncs are evaluated here, outside the registry lock.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistValue{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for n, fn := range r.gaugeFns {
		fns[n] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, fn := range fns {
		s.Gauges[n] = fn()
	}
	for n, h := range hists {
		hv := HistValue{Count: h.count.Load(), Sum: math.Float64frombits(h.sum.Load())}
		for i := 0; i < numBuckets; i++ {
			if c := h.buckets[i].Load(); c > 0 {
				hv.Buckets = append(hv.Buckets, Bucket{UpperBound: bucketUpperBound(i), Count: c})
			}
		}
		s.Histograms[n] = hv
	}
	return s
}

// Delta returns this snapshot minus prev: counters and histogram contents
// subtract (per-launch accounting windows), gauges keep their current
// values.  Metrics absent from prev pass through unchanged.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistValue, len(s.Histograms)),
	}
	for n, v := range s.Counters {
		d.Counters[n] = v - prev.Counters[n]
	}
	for n, v := range s.Gauges {
		d.Gauges[n] = v
	}
	for n, hv := range s.Histograms {
		ph := prev.Histograms[n]
		dv := HistValue{Count: hv.Count - ph.Count, Sum: hv.Sum - ph.Sum}
		prevByBound := make(map[float64]int64, len(ph.Buckets))
		for _, b := range ph.Buckets {
			prevByBound[b.UpperBound] = b.Count
		}
		for _, b := range hv.Buckets {
			if c := b.Count - prevByBound[b.UpperBound]; c > 0 {
				dv.Buckets = append(dv.Buckets, Bucket{UpperBound: b.UpperBound, Count: c})
			}
		}
		d.Histograms[n] = dv
	}
	return d
}

// bucketIndexForBound inverts bucketUpperBound: the index of the bucket
// whose inclusive upper bound covers le.  Used when folding serialized
// histogram buckets back into a live histogram (Merge).
func bucketIndexForBound(le float64) int {
	for i := 0; i < numBuckets; i++ {
		if bucketUpperBound(i) >= le {
			return i
		}
	}
	return numBuckets - 1
}

// merge folds a snapshot histogram's buckets, count, and sum into h.
// Nil-safe.
func (h *Histogram) merge(hv HistValue) {
	if h == nil || hv.Count == 0 {
		return
	}
	for _, b := range hv.Buckets {
		h.buckets[bucketIndexForBound(b.UpperBound)].Add(b.Count)
	}
	h.count.Add(hv.Count)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + hv.Sum)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
}

// Merge folds a snapshot's counters and histograms into the registry: the
// aggregation primitive of the serving layer, where every job runs against
// its own isolated registry and the server folds each job's delta into the
// server-level aggregate on completion.  Counters add; histogram buckets,
// counts, and sums add.  Gauges are deliberately NOT merged — last-value
// semantics do not sum — so server-level gauges stay owned by the server.
// Merging preserves the cross-check invariant: after merging N disjoint job
// snapshots, every aggregate counter equals the sum of the per-job values.
// No-op on a nil registry.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for n, v := range s.Counters {
		if v != 0 {
			r.Counter(n).Add(v)
		}
	}
	for n, hv := range s.Histograms {
		r.Histogram(n).merge(hv)
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket upper
// bounds; 0 when the histogram is empty.
func (hv HistValue) Quantile(q float64) float64 {
	if hv.Count == 0 || len(hv.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(hv.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range hv.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.UpperBound
		}
	}
	return hv.Buckets[len(hv.Buckets)-1].UpperBound
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSnapshot loads a snapshot serialized by JSON — the input side of
// offline snapshot comparison (cuccprof -compare).
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: not a snapshot: %w", err)
	}
	if s.Counters == nil && s.Gauges == nil && s.Histograms == nil {
		return Snapshot{}, fmt.Errorf("metrics: JSON has none of counters/gauges/histograms")
	}
	return s, nil
}

// Table renders the snapshot as a deterministic text table: metrics sorted
// by name within kind, histograms summarized as count/sum/mean/p50/p99.
func (s Snapshot) Table() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter    %-42s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge      %-42s %g\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		hv := s.Histograms[n]
		mean := 0.0
		if hv.Count > 0 {
			mean = hv.Sum / float64(hv.Count)
		}
		fmt.Fprintf(&b, "histogram  %-42s count=%d sum=%g mean=%g p50<=%g p99<=%g\n",
			n, hv.Count, hv.Sum, mean, hv.Quantile(0.50), hv.Quantile(0.99))
	}
	return b.String()
}
