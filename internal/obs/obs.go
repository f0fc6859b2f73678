// Package obs is the observability core of the GPS stack: a stdlib-only
// metrics library — atomic counters, gauges, and fixed-bucket histograms —
// plus a registry that renders the Prometheus text exposition format.
//
// # Design
//
// The record path is lock-free and allocation-free: a Counter or Gauge is
// one atomic word, and a Histogram is a fixed array of atomic.Uint64 cells
// with power-of-two bucket bounds, so recording an observation is one
// division, one bits.Len64 and two atomic adds. Instruments are created
// standalone (the engine owns its histograms before any registry exists)
// and attached to a Registry by name; the registry is only touched at
// scrape time.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Label is one constant key="value" pair attached to a metric at
// registration. Labels distinguish instances within a family (for example
// per-shard ring depths, or per-route request counters).
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a fresh counter (equivalent to new(Counter); exists
// for symmetry with NewHistogram).
func NewCounter() *Counter { return new(Counter) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable signed gauge (current in-flight requests, queue
// occupancy). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a fresh gauge.
func NewGauge() *Gauge { return new(Gauge) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistogramOpts parameterizes a Histogram's fixed bucket layout. Bucket i
// (0-based) covers raw values ≤ Min·2^i: power-of-two bounds make the
// record path branch-free (one division + bits.Len64) and the layout
// needs no configuration beyond the smallest interesting value.
type HistogramOpts struct {
	// Min is the upper bound of the first bucket in raw units (≥ 1;
	// 0 means 1). Values at or below Min land in bucket 0.
	Min uint64
	// Buckets is the number of finite buckets (default 20). Values above
	// the largest finite bound land in the implicit +Inf bucket.
	Buckets int
	// Scale converts raw units to rendered units at exposition time
	// (default 1). Latency histograms record nanoseconds and render
	// seconds with Scale = 1e-9, per the Prometheus convention.
	Scale float64
}

// Latency is the standard layout for duration histograms: raw nanoseconds
// rendered as seconds, first bucket ~1µs (1024ns), 26 power-of-two buckets
// (top finite bound ~34s).
func Latency() HistogramOpts { return HistogramOpts{Min: 1 << 10, Buckets: 26, Scale: 1e-9} }

// Sizes is the standard layout for count/size histograms (edges per batch,
// bytes per document): first bucket 1, the given number of power-of-two
// buckets, rendered unscaled.
func Sizes(buckets int) HistogramOpts { return HistogramOpts{Min: 1, Buckets: buckets, Scale: 1} }

// Histogram is a fixed-bucket histogram with power-of-two bounds and
// lock-free atomic cells. Observing is allocation-free; rendering computes
// the cumulative counts the Prometheus format requires from the per-bucket
// cells, so cumulativity holds by construction.
type Histogram struct {
	min   uint64
	scale float64
	cells []atomic.Uint64 // Buckets finite cells + 1 overflow (+Inf) cell
	sum   atomic.Uint64   // raw-unit sum of all observations
}

// NewHistogram returns a histogram with the given bucket layout.
func NewHistogram(o HistogramOpts) *Histogram {
	if o.Min == 0 {
		o.Min = 1
	}
	if o.Buckets <= 0 {
		o.Buckets = 20
	}
	// Bounds are min<<i; cap the finite buckets so the top bound cannot
	// overflow uint64.
	if max := 63 - bits.Len64(o.Min-1); o.Buckets > max {
		o.Buckets = max
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return &Histogram{min: o.Min, scale: o.Scale, cells: make([]atomic.Uint64, o.Buckets+1)}
}

// Observe records one raw-unit value.
func (h *Histogram) Observe(v uint64) {
	idx := 0
	if v > h.min {
		idx = bits.Len64((v - 1) / h.min)
		if idx >= len(h.cells) {
			idx = len(h.cells) - 1
		}
	}
	h.cells[idx].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start. A zero start
// records nothing.
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(uint64(time.Since(start)))
}

// bound returns the rendered upper bound of finite bucket i.
func (h *Histogram) bound(i int) float64 { return float64(h.min<<uint(i)) * h.scale }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.cells {
		n += h.cells[i].Load()
	}
	return n
}

// Sum returns the sum of all observations in rendered units.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) * h.scale }
