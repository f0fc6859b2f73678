package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	// Min=1024: bucket i covers (1024·2^(i-1), 1024·2^i]; bucket 0 covers
	// [0, 1024]. Values beyond the last finite bound land in the +Inf cell.
	h := NewHistogram(HistogramOpts{Min: 1 << 10, Buckets: 4})
	cases := []struct {
		v    uint64
		cell int
	}{
		{0, 0},
		{1, 0},
		{1024, 0},
		{1025, 1},
		{2048, 1},
		{2049, 2},
		{4096, 2},
		{8192, 3},
		{16384, 4}, // largest finite bound — last finite cell is index 3
		{1 << 40, 4},
	}
	for _, c := range cases {
		before := h.cells[c.cell].Load()
		h.Observe(c.v)
		if after := h.cells[c.cell].Load(); after != before+1 {
			t.Errorf("Observe(%d): cell %d went %d -> %d, want +1", c.v, c.cell, before, after)
		}
	}
	if got := h.Count(); got != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", got, len(cases))
	}
	var want uint64
	for _, c := range cases {
		want += c.v
	}
	if got := h.Sum(); got != float64(want) {
		t.Fatalf("Sum = %g, want %d", got, want)
	}
}

func TestHistogramDefaultsAndOverflowCap(t *testing.T) {
	h := NewHistogram(HistogramOpts{})
	if h.min != 1 || len(h.cells) != 21 || h.scale != 1 {
		t.Fatalf("defaults: min=%d cells=%d scale=%g", h.min, len(h.cells), h.scale)
	}
	// A huge Min must cap the finite bucket count so min<<i cannot overflow.
	h = NewHistogram(HistogramOpts{Min: 1 << 60, Buckets: 30})
	top := h.bound(len(h.cells) - 2)
	if top <= 0 || math.IsInf(top, 0) {
		t.Fatalf("top finite bound overflowed: %g (cells=%d)", top, len(h.cells))
	}
}

func TestObserveSinceZeroStartIsNoop(t *testing.T) {
	h := NewHistogram(Latency())
	h.ObserveSince(time.Time{})
	if h.Count() != 0 {
		t.Fatal("zero start must record nothing")
	}
	h.ObserveSince(time.Now())
	if h.Count() != 1 {
		t.Fatal("a nonzero start must record once")
	}
}

// goldenRegistry builds the fixed registry the golden-file test renders.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	h := reg.Histogram("gps_test_batch_ns", "Batch latency in raw nanoseconds.",
		HistogramOpts{Min: 1000, Buckets: 3})
	h.Observe(500)
	h.Observe(1500)
	h.Observe(10000)
	reg.Gauge("gps_test_depth", "Ring depth.", Label{"shard", "0"}).Set(5)
	reg.Gauge("gps_test_depth", "Ring depth.", Label{"shard", "1"}).Set(9)
	reg.Counter("gps_test_edges_total", "Edges observed.").Add(42)
	reg.RegisterCounterFunc("gps_test_stalls_total", `Producer "stall" events.`,
		func() uint64 { return 7 }, Label{"shard", "0"})
	reg.RegisterGaugeFunc("gps_test_threshold", "Threshold z*.", func() float64 { return 0.25 })
	return reg
}

func TestGoldenExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", path, buf.String(), want)
	}
	if fams, samples, err := CheckExposition(&buf); err != nil {
		t.Fatalf("golden output fails lint: %v", err)
	} else if fams != 5 || samples == 0 {
		t.Fatalf("lint saw %d families, %d samples", fams, samples)
	}
}

// TestValues checks the JSON view against the golden registry: every
// non-bucket sample line under its exposition name, and no non-finite
// value, which would make the JSON encoding of the whole map fail.
func TestValues(t *testing.T) {
	reg := goldenRegistry()
	reg.RegisterGaugeFunc("gps_test_nan", "Not a number.", math.NaN)
	reg.RegisterGaugeFunc("gps_test_inf", "Infinite.", func() float64 { return math.Inf(-1) })
	got := reg.Values()
	want := map[string]float64{
		"gps_test_batch_ns_sum":            12000,
		"gps_test_batch_ns_count":          3,
		`gps_test_depth{shard="0"}`:        5,
		`gps_test_depth{shard="1"}`:        9,
		"gps_test_edges_total":             42,
		`gps_test_stalls_total{shard="0"}`: 7,
		"gps_test_threshold":               0.25,
	}
	if len(got) != len(want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("Values()[%s] = %v, want %v (all: %v)", name, got[name], v, got)
		}
	}
	if _, err := json.Marshal(got); err != nil {
		t.Fatalf("Values() does not encode as JSON: %v", err)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("invalid name", func() { NewRegistry().Counter("9bad", "h") })
	mustPanic("empty help", func() { NewRegistry().Counter("ok_name", "") })
	mustPanic("le label", func() { NewRegistry().Counter("ok_name", "h", Label{"le", "1"}) })
	mustPanic("bad label", func() { NewRegistry().Counter("ok_name", "h", Label{"bad-key", "1"}) })
	mustPanic("kind conflict", func() {
		r := NewRegistry()
		r.Counter("ok_name", "h")
		r.Gauge("ok_name", "h")
	})
	mustPanic("duplicate labels", func() {
		r := NewRegistry()
		r.Counter("ok_name", "h", Label{"shard", "0"})
		r.Counter("ok_name", "h", Label{"shard", "0"})
	})
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gps_esc_total", "h", Label{"path", "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `gps_esc_total{path="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label not found in:\n%s", buf.String())
	}
	if _, _, err := CheckExposition(&buf); err != nil {
		t.Fatalf("escaped output fails lint: %v", err)
	}
}

// TestConcurrentRecordAndScrape hammers counters and histograms from
// concurrent producers while scraping and linting the output — the -race
// proof that the record path and the scrape path can overlap freely.
func TestConcurrentRecordAndScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("gps_hammer_total", "Hammered counter.")
	g := reg.Gauge("gps_hammer_depth", "Hammered gauge.")
	h := reg.Histogram("gps_hammer_ns", "Hammered histogram.", Latency())
	const producers = 8
	const perProducer = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed<<10 + uint64(i))
			}
		}(uint64(p))
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := CheckExposition(&buf); err != nil {
				t.Errorf("mid-hammer scrape fails lint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := c.Value(); got != producers*perProducer {
		t.Fatalf("counter = %d, want %d", got, producers*perProducer)
	}
	if got := h.Count(); got != producers*perProducer {
		t.Fatalf("histogram count = %d, want %d", got, producers*perProducer)
	}
	if got := g.Value(); got != producers*perProducer {
		t.Fatalf("gauge = %d, want %d", got, producers*perProducer)
	}
}
