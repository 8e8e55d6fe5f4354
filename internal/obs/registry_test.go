package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("secmr_test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("secmr_test_total", "a counter"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.Gauge("secmr_test_gauge", "a gauge", "resource", "3")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.Histogram("secmr_test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("hist sum = %v, want 56.05", h.Sum())
	}
}

// TestHistogramObserveNWeightsOneSample: ObserveN(v, n) is n
// observations of v — n into v's bucket and the count, n·v into the sum
// — and a non-positive weight records nothing. AddValue reports the
// count it left.
func TestHistogramObserveNWeightsOneSample(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("secmr_test_seconds", "a histogram", []float64{1, 2})
	h.ObserveN(1.5, 64)
	h.ObserveN(0.5, 1)
	h.ObserveN(3, 0)
	h.ObserveN(3, -2)
	if h.Count() != 65 {
		t.Fatalf("hist count = %d, want 65", h.Count())
	}
	if math.Abs(h.Sum()-96.5) > 1e-9 {
		t.Fatalf("hist sum = %v, want 64·1.5 + 0.5", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`secmr_test_seconds_bucket{le="1"} 1`,
		`secmr_test_seconds_bucket{le="2"} 65`,
		`secmr_test_seconds_bucket{le="+Inf"} 65`,
		`secmr_test_seconds_count 65`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Fatalf("exposition lacks %q:\n%s", line, b.String())
		}
	}

	c := r.Counter("secmr_test_total", "a counter")
	if got := c.AddValue(3); got != 3 {
		t.Fatalf("AddValue(3) = %d, want 3", got)
	}
	if got := c.AddValue(0); got != 3 {
		t.Fatalf("AddValue(0) = %d, want the unchanged 3", got)
	}
	var nilC *Counter
	if nilC.AddValue(5) != 0 {
		t.Fatal("nil counter's AddValue must read 0")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", DefLatencyBuckets)
	r.GaugeFunc("x", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var s *Sink
	if s.Registry() != nil || s.Tracer() != nil {
		t.Fatal("nil sink must hand out nil backends")
	}
	s.Emit(Event{Type: EvMsgSend})
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("secmr_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("secmr_conflict", "")
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(7)
	r.Gauge("a_gauge", "", "id", "1").Set(1.5)
	r.GaugeFunc("c_fn", "", func() float64 { return 42 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	// Sorted by name: a_gauge, b_total, c_fn.
	if snap[0].Name != "a_gauge" || snap[0].Value != 1.5 || snap[0].Labels != `id="1"` {
		t.Fatalf("bad snapshot[0]: %+v", snap[0])
	}
	if snap[1].Name != "b_total" || snap[1].Value != 7 || snap[1].Kind != "counter" {
		t.Fatalf("bad snapshot[1]: %+v", snap[1])
	}
	if snap[2].Name != "c_fn" || snap[2].Value != 42 {
		t.Fatalf("bad snapshot[2]: %+v", snap[2])
	}
}

// TestPrometheusFormatParses scrapes a populated registry and runs the
// output through a strict text-format parser: HELP/TYPE preambles,
// sample-line syntax, histogram bucket monotonicity and the
// _sum/_count companions — the acceptance check that /metrics emits
// valid Prometheus exposition format.
func TestPrometheusFormatParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("secmr_msgs_total", "messages", "dir", "out").Add(12)
	r.Counter("secmr_msgs_total", "messages", "dir", "in").Add(9)
	r.Gauge("secmr_queue_depth", "queue depth").Set(3)
	r.GaugeFunc("secmr_step", "current step", func() float64 { return 17 })
	h := r.Histogram("secmr_op_seconds", "op latency", []float64{0.001, 0.01, 0.1}, "op", `weird"label\value`)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	families, samples := parsePrometheus(t, text)
	if families["secmr_msgs_total"] != "counter" ||
		families["secmr_queue_depth"] != "gauge" ||
		families["secmr_step"] != "gauge" ||
		families["secmr_op_seconds"] != "histogram" {
		t.Fatalf("family types wrong: %v", families)
	}
	if samples[`secmr_msgs_total{dir="out"}`] != 12 || samples[`secmr_msgs_total{dir="in"}`] != 9 {
		t.Fatalf("counter samples wrong: %v", samples)
	}
	if samples["secmr_step"] != 17 {
		t.Fatalf("gauge func sample wrong: %v", samples)
	}
	// Histogram invariants: buckets are cumulative and monotone, +Inf
	// bucket equals _count, _sum matches.
	var prev float64 = -1
	for _, le := range []string{"0.001", "0.01", "0.1", "+Inf"} {
		key := `secmr_op_seconds_bucket{op="weird\"label\\value",le="` + le + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s in:\n%s", key, text)
		}
		if v < prev {
			t.Fatalf("bucket %s not monotone (%v < %v)", le, v, prev)
		}
		prev = v
	}
	if prev != samples[`secmr_op_seconds_count{op="weird\"label\\value"}`] || prev != 3 {
		t.Fatalf("+Inf bucket %v != count", prev)
	}
	if math.Abs(samples[`secmr_op_seconds_sum{op="weird\"label\\value"}`]-5.0505) > 1e-9 {
		t.Fatal("histogram sum mismatch")
	}
}

// parsePrometheus is a strict-enough text-format parser: it validates
// comment preambles, metric/label/value syntax, and that every sample
// belongs to an announced family.
func parsePrometheus(t *testing.T, text string) (families map[string]string, samples map[string]float64) {
	t.Helper()
	families = map[string]string{}
	samples = map[string]float64{}
	helped := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) < 1 || !validMetricName(parts[0]) {
				t.Fatalf("line %d: bad HELP: %q", i+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || !validMetricName(parts[0]) {
				t.Fatalf("line %d: bad TYPE: %q", i+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: bad TYPE %q", i+1, parts[1])
			}
			if !helped[parts[0]] {
				t.Fatalf("line %d: TYPE before HELP for %q", i+1, parts[0])
			}
			families[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", i+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := parseValue(valStr)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, valStr, err)
		}
		name := key
		if br := strings.IndexByte(key, '{'); br >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set: %q", i+1, line)
			}
			name = key[:br]
			validateLabels(t, i+1, key[br+1:len(key)-1])
		}
		if !validMetricName(name) {
			t.Fatalf("line %d: bad metric name %q", i+1, name)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := families[name]; !ok {
			if _, ok := families[base]; !ok {
				t.Fatalf("line %d: sample for unannounced family %q", i+1, name)
			}
		}
		samples[key] = v
	}
	return families, samples
}

// validateLabels checks `k="v"` pairs with escaped quote/backslash
// support.
func validateLabels(t *testing.T, line int, s string) {
	t.Helper()
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			t.Fatalf("line %d: bad label pair in %q", line, s)
		}
		name := s[:eq]
		for _, c := range name {
			if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				t.Fatalf("line %d: bad label name %q", line, name)
			}
		}
		// Scan the quoted value, honoring escapes.
		j := eq + 2
		for {
			if j >= len(s) {
				t.Fatalf("line %d: unterminated label value in %q", line, s)
			}
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		s = s[j+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				t.Fatalf("line %d: expected ',' between labels, got %q", line, s)
			}
			s = s[1:]
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		if !(letter || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}
