package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Registry holds named metric families and renders them in the
// Prometheus text exposition format (version 0.0.4). Registration panics
// on an invalid name, a help-less metric, a kind conflict within a family,
// or a duplicate label set — all programmer errors, caught at boot.
// Scraping takes one mutex and reads every instrument atomically enough
// for monitoring (counters may be mid-update; each value is itself
// consistent).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

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
	default:
		return "histogram"
	}
}

type sample struct {
	labels    []Label
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

type family struct {
	name, help string
	kind       metricKind
	samples    []*sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// RegisterCounter attaches c to the registry under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) *Counter {
	r.add(name, help, kindCounter, &sample{labels: labels, counter: c})
	return c
}

// RegisterCounterFunc registers a counter whose value is read from fn at
// scrape time — for cumulative counts maintained elsewhere (ring stalls,
// shard epochs).
func (r *Registry) RegisterCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, kindCounter, &sample{labels: labels, counterFn: fn})
}

// RegisterGauge attaches g to the registry under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...Label) *Gauge {
	r.add(name, help, kindGauge, &sample{labels: labels, gauge: g})
	return g
}

// RegisterGaugeFunc registers a gauge whose value is read from fn at
// scrape time — the cheap way to expose existing state (queue occupancy,
// reservoir fill) without double bookkeeping.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, &sample{labels: labels, gaugeFn: fn})
}

// RegisterHistogram attaches h to the registry under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) *Histogram {
	r.add(name, help, kindHistogram, &sample{labels: labels, hist: h})
	return h
}

// Counter creates and registers a counter in one step.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.RegisterCounter(name, help, NewCounter(), labels...)
}

// Gauge creates and registers a settable gauge in one step.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.RegisterGauge(name, help, NewGauge(), labels...)
}

// Histogram creates and registers a histogram in one step.
func (r *Registry) Histogram(name, help string, o HistogramOpts, labels ...Label) *Histogram {
	return r.RegisterHistogram(name, help, NewHistogram(o), labels...)
}

func (r *Registry) add(name, help string, kind metricKind, s *sample) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if help == "" {
		panic(fmt.Sprintf("obs: metric %q registered without help text", name))
	}
	for _, l := range s.labels {
		if !validLabelName(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, l.Key))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	key := labelString(s.labels)
	for _, prev := range f.samples {
		if labelString(prev.labels) == key {
			panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, key))
		}
	}
	f.samples = append(f.samples, s)
}

// Unregister removes every sample whose label set contains match (key and
// value both equal) from every family, dropping families left without
// samples. It is the teardown half of labeled registration: a multi-tenant
// registry that registered a stream's samples under {stream="name"} removes
// them all with one call when the stream is deleted, so a later re-creation
// under the same name cannot trip the duplicate-registration panic and
// scrape-time readers stop touching the deleted stream's state. Returns the
// number of samples removed.
func (r *Registry) Unregister(match Label) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	removed := 0
	for name, f := range r.fams {
		kept := f.samples[:0]
		for _, s := range f.samples {
			matched := false
			for _, l := range s.labels {
				if l == match {
					matched = true
					break
				}
			}
			if matched {
				removed++
			} else {
				kept = append(kept, s)
			}
		}
		f.samples = kept
		if len(f.samples) == 0 {
			delete(r.fams, name)
		}
	}
	return removed
}

// WritePrometheus renders every registered family, sorted by name, in the
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.Reset()
		r.fams[name].write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the GET /metrics handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	f.lines(func(name, value string, _ bool) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(value)
		b.WriteByte('\n')
	})
}

// Values reads every sample the text format renders, keyed by its
// exposition name with labels (gps_engine_ring_depth{shard="0"}), as the
// number that format prints. Histograms contribute their _sum and _count
// only. A non-finite value is left out: JSON has no number for it, and
// one such gauge must not cost a JSON document every other value.
func (r *Registry) Values() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range r.fams {
		f.lines(func(name, value string, bucket bool) {
			v, err := strconv.ParseFloat(value, 64)
			if !bucket && err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
				out[name] = v
			}
		})
	}
	return out
}

// lines reads each sample of f once and calls line for every sample line
// the text format prints, with its name (labels included) and its value
// as printed; bucket marks a histogram's _bucket lines. write and Values
// both read through it, so the two renderers cannot disagree.
func (f *family) lines(line func(name, value string, bucket bool)) {
	for _, s := range f.samples {
		switch f.kind {
		case kindCounter:
			v := s.counterFn
			if v == nil {
				v = s.counter.Value
			}
			line(f.name+labelString(s.labels), strconv.FormatUint(v(), 10), false)
		case kindGauge:
			var v float64
			if s.gaugeFn != nil {
				v = s.gaugeFn()
			} else {
				v = float64(s.gauge.Value())
			}
			line(f.name+labelString(s.labels), formatFloat(v), false)
		case kindHistogram:
			s.hist.lines(f.name, s.labels, line)
		}
	}
}

// lines reads one histogram instance: cumulative _bucket lines ending at
// le="+Inf", then _sum and _count. Cells are loaded once, so the bucket
// lines are cumulative by construction even while producers record.
func (h *Histogram) lines(name string, labels []Label, line func(name, value string, bucket bool)) {
	var cum uint64
	for i := range h.cells {
		cum += h.cells[i].Load()
		le := "+Inf"
		if i < len(h.cells)-1 {
			le = formatFloat(h.bound(i))
		}
		line(name+"_bucket"+bucketLabels(labels, le), strconv.FormatUint(cum, 10), true)
	}
	ls := labelString(labels)
	line(name+"_sum"+ls, formatFloat(float64(h.sum.Load())*h.scale), false)
	line(name+"_count"+ls, strconv.FormatUint(cum, 10), false)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k1="v1",k2="v2"}, or "" for no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes exactly what the format requires of label values:
		// backslash, double quote and newline.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// bucketLabels renders the labels with le appended last.
func bucketLabels(labels []Label, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q,", l.Key, l.Value)
	}
	fmt.Fprintf(&b, "le=%q}", le)
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
