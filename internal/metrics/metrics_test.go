package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"secmr/internal/arm"
)

// rs builds a RuleSet keyed by the given rule keys; RecallPrecision
// compares keys only, so the rules themselves stay zero.
func rs(keys ...string) arm.RuleSet {
	out := arm.RuleSet{}
	for _, k := range keys {
		out[k] = arm.Rule{}
	}
	return out
}

func TestRecallPrecision(t *testing.T) {
	truth := rs(">1|freq", ">2|freq", ">3|freq", "1>2|conf")
	interim := rs(">1|freq", ">2|freq", "4>5|conf")
	rec, prec := RecallPrecision(interim, truth)
	if rec != 0.5 {
		t.Errorf("recall = %v want 0.5", rec)
	}
	if prec != 2.0/3.0 {
		t.Errorf("precision = %v want 2/3", prec)
	}
}

func TestRecallPrecisionEdgeCases(t *testing.T) {
	// Empty interim: precision 1 (nothing claimed), recall 0.
	rec, prec := RecallPrecision(arm.RuleSet{}, rs(">1|freq"))
	if rec != 0 || prec != 1 {
		t.Errorf("empty interim: rec=%v prec=%v", rec, prec)
	}
	// Empty truth: recall 1.
	rec, prec = RecallPrecision(rs(">1|freq"), arm.RuleSet{})
	if rec != 1 || prec != 0 {
		t.Errorf("empty truth: rec=%v prec=%v", rec, prec)
	}
	// Both empty.
	rec, prec = RecallPrecision(arm.RuleSet{}, arm.RuleSet{})
	if rec != 1 || prec != 1 {
		t.Errorf("both empty: rec=%v prec=%v", rec, prec)
	}
}

func TestAverage(t *testing.T) {
	truth := rs(">1|freq", ">2|freq")
	interims := []arm.RuleSet{
		rs(">1|freq", ">2|freq"), // 1.0 / 1.0
		rs(">1|freq"),            // 0.5 / 1.0
		rs(">3|freq"),            // 0.0 / 0.0
	}
	rec, prec := Average(interims, truth)
	if rec < 0.499 || rec > 0.501 {
		t.Errorf("avg recall = %v want 0.5", rec)
	}
	want := 2.0 / 3.0
	if prec < want-0.001 || prec > want+0.001 {
		t.Errorf("avg precision = %v want %v", prec, want)
	}
	if r, p := Average(nil, truth); r != 0 || p != 0 {
		t.Error("empty input should average to zero")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "x"}
	if (s.Final() != Point{}) {
		t.Error("empty Final should be zero")
	}
	s.Add(Point{Step: 0, Recall: 0.1, Precision: 1})
	s.Add(Point{Step: 10, Recall: 0.5, Precision: 0.9, Scans: 1})
	s.Add(Point{Step: 20, Recall: 0.95, Precision: 0.8, Scans: 2})
	s.Add(Point{Step: 30, Recall: 0.95, Precision: 0.92, Scans: 3})
	p, ok := s.FirstReach(0.9)
	if !ok || p.Step != 30 { // recall alone reached 0.9 at step 20
		t.Errorf("FirstReach = %+v ok=%v", p, ok)
	}
	if _, ok := s.FirstReach(0.99); ok {
		t.Error("FirstReach above max should fail")
	}
	if s.Final().Step != 30 {
		t.Error("Final wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Label: "plain,weird\"label"}
	a.Add(Point{Step: 5, Scans: 0.5, Recall: 0.25, Precision: 0.75})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "label,step,scans,recall,precision\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, `"plain,weird""label"`) {
		t.Fatalf("label not escaped: %q", out)
	}
	if !strings.Contains(out, "5,0.5000,0.2500,0.7500") {
		t.Fatalf("row missing: %q", out)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	s := Sparkline([]float64{0, 0.5, 1, -2, 7})
	runes := []rune(s)
	if len(runes) != 5 {
		t.Fatalf("length %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' || runes[3] != '▁' || runes[4] != '█' {
		t.Fatalf("render %q", s)
	}
	ser := &Series{}
	ser.Add(Point{Recall: 0.1})
	ser.Add(Point{Recall: 0.9})
	if len([]rune(RecallSparkline(ser))) != 2 {
		t.Fatal("series sparkline length")
	}
}

func TestWriteCSVEmptyAndSinglePoint(t *testing.T) {
	var buf strings.Builder
	if err := WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "label,step,scans,recall,precision\n" {
		t.Fatalf("no-series CSV = %q, want header only", buf.String())
	}

	buf.Reset()
	empty := &Series{Label: "empty"}
	if err := WriteCSV(&buf, empty); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("empty series must contribute no rows: %q", buf.String())
	}

	buf.Reset()
	one := &Series{Label: "one"}
	one.Add(Point{Step: 25, Scans: 2.5, Recall: 0.5, Precision: 1})
	if err := WriteCSV(&buf, one); err != nil {
		t.Fatal(err)
	}
	want := "label,step,scans,recall,precision\none,25,2.5000,0.5000,1.0000\n"
	if buf.String() != want {
		t.Fatalf("single-point CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteCSVGuardsNonFinite(t *testing.T) {
	s := &Series{Label: "nan"}
	s.Add(Point{Step: 1, Scans: math.NaN(), Recall: math.Inf(1), Precision: math.Inf(-1)})
	s.Add(Point{Step: 2, Scans: 1, Recall: 0.25, Precision: 0.75})
	var buf strings.Builder
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[1] != "nan,1,,," {
		t.Fatalf("non-finite row = %q, want empty cells", lines[1])
	}
	if lines[2] != "nan,2,1.0000,0.2500,0.7500" {
		t.Fatalf("finite row = %q", lines[2])
	}
	if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
		t.Fatalf("literal NaN/Inf leaked into CSV: %q", buf.String())
	}
}

func TestWriteCSVEscapesLabels(t *testing.T) {
	s := &Series{Label: `a,"b"`}
	s.Add(Point{Step: 1, Scans: 1, Recall: 1, Precision: 1})
	var buf strings.Builder
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"a,""b"""`) {
		t.Fatalf("label not CSV-escaped: %q", buf.String())
	}
}

func TestSparklineNonFinite(t *testing.T) {
	s := []rune(Sparkline([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5}))
	if len(s) != 4 {
		t.Fatalf("length %d", len(s))
	}
	if s[0] != ' ' {
		t.Fatalf("NaN should render as a gap, got %q", s[0])
	}
	if s[1] != '█' || s[2] != '▁' {
		t.Fatalf("Inf should clamp to the extremes, got %q", string(s))
	}
}
