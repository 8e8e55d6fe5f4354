// Package obs is the grid-wide telemetry subsystem: a lock-cheap
// metrics registry with Prometheus text-format exposition, a
// ring-buffered structured event tracer with JSONL export, an optional
// net/http introspection server, and a convergence watchdog. It is
// stdlib-only by design.
//
// Every instrument and the registry itself are nil-safe: a nil
// *Counter's Inc, a nil *Tracer's Emit and a nil *Registry's lookups
// are all no-ops, so instrumented code paths carry telemetry hooks
// unconditionally and pay only a nil check (≈1 ns, verified by
// BenchmarkDisabledCounterInc) when telemetry is off. Hot paths
// resolve their instruments once at setup and hold the pointers, so
// the enabled path is a single atomic add — no map lookups, no locks.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind is the Prometheus family type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing metric with an atomic fast
// path. The zero value is usable; a nil receiver is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// AddValue is Add returning the count after it (0 for nil), for callers
// that key a decision on their own position in the sequence.
func (c *Counter) AddValue(n int64) int64 {
	if c == nil {
		return 0
	}
	if n <= 0 {
		return c.v.Load()
	}
	return c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as atomic float64
// bits. The zero value is usable; a nil receiver is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (a CAS loop, safe for concurrent use).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram with atomic bucket
// counters. A nil receiver is a no-op.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// DefLatencyBuckets covers crypto-operation latencies from 1 µs to
// ~4 s in powers of four.
var DefLatencyBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
}

// MsgsPerFrameBuckets covers transport coalescing factors (messages
// packed into one wire frame) in powers of two.
var MsgsPerFrameBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records one sample standing for n observations of v: n is
// added to v's bucket and to the count, n·v to the sum. A sampler that
// keeps 1 value in n records it this way, so that _count and _sum still
// estimate the whole population. n ≤ 0 is ignored.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	w := float64(n) * v
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + w)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// series is one registered time series: an instrument plus its labels.
type series struct {
	labels  string // canonical rendered label set, "" for none
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label keys in registration order
	series map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use and
// nil-safe (a nil *Registry hands out nil instruments, which are
// themselves no-ops).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// getFamily finds or creates a family, panicking on a kind conflict —
// re-registering a name with a different type is a programming error.
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// labelString renders alternating key,value pairs canonically (sorted
// by key). Panics on an odd count — a programming error.
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter finds or creates a counter series. kv is an alternating
// key,value label list. Nil-safe: a nil registry returns nil.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	ls := labelString(kv)
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls, counter: &Counter{}}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s.counter
}

// Gauge finds or creates a gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	ls := labelString(kv)
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls, gauge: &Gauge{}}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time. fn must be safe to call from the scrape goroutine.
// Re-registering the same name+labels replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	ls := labelString(kv)
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	s.gaugeFn = fn
}

// Histogram finds or creates a histogram series with the given upper
// bounds (ascending; +Inf implicit). Buckets are fixed at first
// registration.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	ls := labelString(kv)
	s, ok := f.series[ls]
	if !ok {
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Int64, len(buckets)+1)
		s = &series{labels: ls, hist: h}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s.hist
}

// MetricPoint is one sample from Snapshot.
type MetricPoint struct {
	Name   string
	Labels string // canonical rendered label set ("" for none)
	Kind   string // "counter", "gauge", "histogram"
	Value  float64
}

// Snapshot returns every scalar series' current value (histograms
// report their sample count), sorted by name then labels — the
// programmatic view behind run summaries.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricPoint
	for _, f := range r.families {
		for _, ls := range f.order {
			s := f.series[ls]
			p := MetricPoint{Name: f.name, Labels: ls, Kind: f.kind.String()}
			switch {
			case s.counter != nil:
				p.Value = float64(s.counter.Value())
			case s.gaugeFn != nil:
				p.Value = s.gaugeFn()
			case s.gauge != nil:
				p.Value = s.gauge.Value()
			case s.hist != nil:
				p.Value = float64(s.hist.Count())
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (families sorted by name for deterministic output).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		order := append([]string(nil), f.order...)
		ss := make([]*series, len(order))
		for i, ls := range order {
			ss[i] = f.series[ls]
		}
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			switch {
			case s.counter != nil:
				writeSample(&b, f.name, "", s.labels, "", float64(s.counter.Value()))
			case s.gaugeFn != nil:
				writeSample(&b, f.name, "", s.labels, "", s.gaugeFn())
			case s.gauge != nil:
				writeSample(&b, f.name, "", s.labels, "", s.gauge.Value())
			case s.hist != nil:
				cum := int64(0)
				for i, bound := range s.hist.bounds {
					cum += s.hist.counts[i].Load()
					writeSample(&b, f.name, "_bucket", s.labels,
						`le="`+formatFloat(bound)+`"`, float64(cum))
				}
				cum += s.hist.counts[len(s.hist.bounds)].Load()
				writeSample(&b, f.name, "_bucket", s.labels, `le="+Inf"`, float64(cum))
				writeSample(&b, f.name, "_sum", s.labels, "", s.hist.Sum())
				writeSample(&b, f.name, "_count", s.labels, "", float64(cum))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one exposition line.
func writeSample(b *strings.Builder, name, suffix, labels, extraLabel string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extraLabel != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extraLabel != "" {
			b.WriteByte(',')
		}
		b.WriteString(extraLabel)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
