// Package prom is the metrics registry behind every /metrics exposition:
// counters, gauges, function-backed series, counter and histogram families
// split by one label, and one writer for the Prometheus text format.
//
// A Registry renders its families in registration order, each with its HELP
// and TYPE lines. Label values registered with a family render first, in
// the order given, so their series exist at zero from the first scrape;
// values first seen at run time follow in sorted order.
package prom

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n uint64) { c.v.Add(n) }
func (c *Counter) Get() uint64  { return c.v.Load() }

// Gauge is a signed instantaneous value (queue depth, in-flight jobs).
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Add(d int64) { g.v.Add(d) }
func (g *Gauge) Get() int64  { return g.v.Load() }

// buckets are the histogram upper bounds (seconds): 1 ms to 60 s, roughly
// ×2.5 per step — wide enough to cover both a cache-warm parse and a full
// superblue solve.
var buckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram in Prometheus semantics:
// counts[i] observations ≤ buckets[i], plus the +Inf total.
type Histogram struct {
	mu     sync.Mutex
	counts [len(buckets)]uint64
	sum    float64
	total  uint64
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ub := range buckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.total++
}

// Vec is a family of series split by one label.
type Vec[T Counter | Histogram] struct {
	mu     sync.Mutex
	fixed  int      // values[:fixed] keep their registration order
	values []string // then run-time values, sorted
	series map[string]*T
}

// With returns the series for a label value, creating it at zero.
func (v *Vec[T]) With(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[value]
	if !ok {
		s = new(T)
		v.series[value] = s
		v.values = append(v.values, value)
		sort.Strings(v.values[v.fixed:])
	}
	return s
}

// Each calls f for every series in exposition order.
func (v *Vec[T]) Each(f func(value string, s *T)) {
	v.mu.Lock()
	values := append([]string(nil), v.values...)
	series := make([]*T, len(values))
	for i, val := range values {
		series[i] = v.series[val]
	}
	v.mu.Unlock()
	for i, val := range values {
		f(val, series[i])
	}
}

// Registry is an ordered set of metric families. Register everything before
// the first Write; the series themselves are safe for concurrent use.
type Registry struct {
	fams []family
}

type family struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

func (r *Registry) add(name, help, typ string, write func(io.Writer, string)) {
	r.fams = append(r.fams, family{name, help, typ, write})
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.add(name, help, "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, c.Get())
	})
	return c
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.add(name, help, "gauge", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, g.Get())
	})
	return g
}

// Func registers an unlabelled series of type typ ("counter" or "gauge")
// whose value f computes at write time — state another structure already
// tracks, such as a cache's size. Integral values render as integers.
func (r *Registry) Func(name, help, typ string, f func() float64) {
	r.add(name, help, typ, func(w io.Writer, name string) {
		v := f()
		if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
			fmt.Fprintf(w, "%s %d\n", name, int64(v))
		} else {
			fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
		}
	})
}

// CounterVec registers a counter family split by label, with values
// pre-registered at zero.
func (r *Registry) CounterVec(name, help, label string, values ...string) *Vec[Counter] {
	v := newVec[Counter](values)
	r.add(name, help, "counter", func(w io.Writer, name string) {
		v.Each(func(value string, c *Counter) {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, c.Get())
		})
	})
	return v
}

// HistogramVec registers a latency histogram family split by label, with
// values pre-registered empty.
func (r *Registry) HistogramVec(name, help, label string, values ...string) *Vec[Histogram] {
	v := newVec[Histogram](values)
	r.add(name, help, "histogram", func(w io.Writer, name string) {
		v.Each(func(value string, h *Histogram) {
			h.mu.Lock()
			defer h.mu.Unlock()
			for i, ub := range buckets {
				fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, ub, h.counts[i])
			}
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, h.total)
			fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.sum)
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.total)
		})
	})
	return v
}

func newVec[T Counter | Histogram](values []string) *Vec[T] {
	v := &Vec[T]{fixed: len(values), values: append([]string(nil), values...), series: make(map[string]*T)}
	for _, val := range values {
		v.series[val] = new(T)
	}
	return v
}

// Write renders every family in the Prometheus text exposition format.
func (r *Registry) Write(w io.Writer) {
	for _, f := range r.fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.write(w, f.name)
	}
}
