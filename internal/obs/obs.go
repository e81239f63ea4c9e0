// Package obs is energyd's observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms) with Prometheus
// text-format exposition and a JSON snapshot, plus a bounded slow/hot-query
// log. The paper's premise is that energy behavior must be measured to be
// optimized (§2–§3); this package makes the serving system's measurements —
// per-statement latency and E_active, the Eq. 1 component totals, the L1D
// share band — continuously visible while it serves traffic instead of only
// inside one-shot experiments.
//
// Concurrency: every metric handle is safe for concurrent use. Counters and
// gauges are lock-free (CAS over float64 bits); histograms and the registry
// index carry small mutexes. Collection (Snapshot, WritePrometheus) runs
// concurrently with updates and observes each metric atomically, though not
// the registry as one consistent cut — standard scrape semantics.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families by name. Metrics register lazily: asking
// for the same (name, labels) twice returns the same handle, so callers can
// resolve label children (e.g. an error class) at the point of use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a fixed kind and a child per label set.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram upper bounds (excluding +Inf)

	mu       sync.Mutex
	children map[string]*child
}

// child is one concrete time series: a label set plus its value cell.
type child struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// Label is one name="value" pair.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelPairs turns alternating key, value strings into sorted Labels.
func labelPairs(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Name: kv[i], Value: kv[i+1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// signature keys a child inside its family.
func signature(ls []Label) string {
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Name)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte(',')
	}
	return sb.String()
}

// lookup returns the family, creating it with the given kind, or panics on a
// kind clash — mixing kinds under one name is a programming error that would
// corrupt the exposition.
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// Counter returns the monotonically increasing counter for (name, labels),
// registering it on first use. labels are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.lookup(name, help, KindCounter, nil)
	ls := labelPairs(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(ls)
	c, ok := f.children[sig]
	if !ok {
		c = &child{labels: ls, ctr: &Counter{}}
		f.children[sig] = c
	}
	return c.ctr
}

// Gauge returns the settable gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.lookup(name, help, KindGauge, nil)
	ls := labelPairs(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(ls)
	c, ok := f.children[sig]
	if !ok {
		c = &child{labels: ls, gauge: &Gauge{}}
		f.children[sig] = c
	}
	return c.gauge
}

// GaugeFunc registers a gauge computed at collection time (derived metrics
// such as the live L1D-share band). fn must be safe to call from any
// goroutine. Re-registering the same (name, labels) replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	f := r.lookup(name, help, KindGauge, nil)
	ls := labelPairs(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.children[signature(ls)] = &child{labels: ls, fn: fn}
}

// Histogram returns the fixed-bucket histogram for (name, labels). buckets
// are the upper bounds (le), in increasing order, excluding +Inf, and must
// match the family's buckets on every call.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s buckets not increasing at %d", name, i))
		}
	}
	f := r.lookup(name, help, KindHistogram, buckets)
	ls := labelPairs(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(ls)
	c, ok := f.children[sig]
	if !ok {
		c = &child{labels: ls, hist: newHistogram(f.buckets)}
		f.children[sig] = c
	}
	return c.hist
}

// Counter is a monotonically increasing float64. Negative and NaN increments
// are dropped (a counter never goes backwards).
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by v (negative allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	upper []float64 // shared, immutable

	mu     sync.Mutex
	counts []uint64 // len(upper)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]uint64, len(upper)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v (le semantics)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshotBuckets returns cumulative bucket counts (per Prometheus le
// semantics, ending with +Inf), the sum and the count, atomically.
func (h *Histogram) snapshotBuckets() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// ExpBuckets returns n upper bounds starting at start, each factor apart —
// the standard shape for latency and energy distributions spanning decades.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Snapshot is a point-in-time copy of the registry, ordered deterministically
// (families by name, series by label signature). It marshals to the JSON the
// STATS wire command returns.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help"`
	Kind    string           `json:"kind"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one time series. Value is set for counters and gauges;
// Buckets/Sum/Count for histograms.
type MetricSnapshot struct {
	Labels  []Label          `json:"labels,omitempty"`
	Value   float64          `json:"value"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket. LE is rendered as a
// string because the final bucket's bound is +Inf, which JSON numbers cannot
// carry.
type BucketSnapshot struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// FormatValue renders a float64 the way both expositions do.
func FormatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot collects every family.
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	for _, f := range r.sortedFamilies() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, c := range f.sortedChildren() {
			m := MetricSnapshot{Labels: c.labels}
			switch {
			case c.ctr != nil:
				m.Value = c.ctr.Value()
			case c.gauge != nil:
				m.Value = c.gauge.Value()
			case c.fn != nil:
				m.Value = c.fn()
			case c.hist != nil:
				cum, sum, count := c.hist.snapshotBuckets()
				for i, n := range cum {
					le := "+Inf"
					if i < len(c.hist.upper) {
						le = FormatValue(c.hist.upper[i])
					}
					m.Buckets = append(m.Buckets, BucketSnapshot{LE: le, Count: n})
				}
				m.Sum, m.Count = sum, count
			}
			fs.Metrics = append(fs.Metrics, m)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	sigs := make([]string, 0, len(f.children))
	for sig := range f.children {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		kids = append(kids, f.children[sig])
	}
	f.mu.Unlock()
	return kids
}
