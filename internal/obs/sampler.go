package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cucc/internal/metrics"
)

// DefaultSamplerCap bounds a sampler built with NewSampler(..., 0).
const DefaultSamplerCap = 128

// Point is one sampling window: the registry's movement over one interval.
type Point struct {
	// Interval is the measured wall-clock length of the window (ticker
	// jitter makes it only approximately the configured interval; rates
	// divide by the measured value).
	Interval time.Duration
	// Delta is the registry delta over the window: counters and histogram
	// contents subtract, gauges carry their instantaneous end-of-window
	// values (metrics.Snapshot.Delta semantics).
	Delta metrics.Snapshot
}

// Sampler snapshots a metrics registry on a fixed interval into a bounded
// ring of deltas, turning cumulative counters into time series (qps,
// bytes/sec, restore rate) and sampling gauges (queue depth).  A nil
// *Sampler is a valid disabled sampler: every method no-ops.
type Sampler struct {
	reg      *metrics.Registry
	interval time.Duration

	mu      sync.Mutex
	points  []Point
	cap     int
	next    int
	dropped int64
	prev    metrics.Snapshot
	last    time.Time

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over reg.  interval <= 0 selects 1s;
// capPoints <= 0 selects DefaultSamplerCap.  The sampler is idle until
// Start (or manual SampleNow calls, which tests use for determinism).
func NewSampler(reg *metrics.Registry, interval time.Duration, capPoints int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capPoints <= 0 {
		capPoints = DefaultSamplerCap
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		cap:      capPoints,
		prev:     reg.Snapshot(),
		last:     time.Now(),
	}
}

// Start launches the background sampling goroutine.  Idempotent; no-op on
// a nil sampler.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SampleNow()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the background goroutine and waits it out.  Idempotent; no-op
// on a nil or never-started sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SampleNow takes one sample immediately: snapshot the registry, record
// the delta against the previous snapshot, advance the window.  Safe for
// concurrent use; no-op on a nil sampler.
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Point{Interval: now.Sub(s.last), Delta: snap.Delta(s.prev)}
	s.prev, s.last = snap, now
	if len(s.points) < s.cap {
		s.points = append(s.points, p)
		return
	}
	s.points[s.next] = p
	s.next = (s.next + 1) % s.cap
	s.dropped++
}

// Points returns the retained windows, oldest first (nil on a nil sampler).
func (s *Sampler) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, len(s.points))
	out = append(out, s.points[s.next:]...)
	out = append(out, s.points[:s.next]...)
	return out
}

// Dropped reports how many windows the ring has overwritten.
func (s *Sampler) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SeriesKind says how a Series derives its value from a window.
type SeriesKind uint8

const (
	// SeriesRate divides the counter delta by the window length.
	SeriesRate SeriesKind = iota
	// SeriesGauge samples the gauge's end-of-window value.
	SeriesGauge
)

// Series is one column of the sampler's table: a metric plus how to read
// it.  The caller supplies the metric names (obs stays below the layers
// that own them).
type Series struct {
	Label  string
	Metric string
	Kind   SeriesKind
}

// Table renders the most recent windows (newest last) as one row per
// window with one column per series.
func (s *Sampler) Table(series []Series) string {
	if s == nil {
		return ""
	}
	pts := s.Points()
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "win_ms")
	for _, sp := range series {
		fmt.Fprintf(&b, " %12s", sp.Label)
	}
	b.WriteByte('\n')
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.0f", p.Interval.Seconds()*1e3)
		for _, sp := range series {
			var v float64
			switch sp.Kind {
			case SeriesGauge:
				v = p.Delta.Gauges[sp.Metric]
			default:
				if sec := p.Interval.Seconds(); sec > 0 {
					v = float64(p.Delta.Counters[sp.Metric]) / sec
				}
			}
			fmt.Fprintf(&b, " %12.1f", v)
		}
		b.WriteByte('\n')
	}
	if d := s.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d older windows dropped: ring capacity %d)\n", d, s.cap)
	}
	return b.String()
}
