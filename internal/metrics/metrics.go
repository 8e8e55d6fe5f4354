// Package metrics implements the solution-quality measures of §6.1:
// recall (fraction of correct rules a resource has uncovered) and
// precision (fraction of a resource's interim rules that are correct),
// plus time-series collection and CSV export for the experiment
// harness.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"secmr/internal/arm"
)

// RecallPrecision computes the §6.1 measures for one resource's
// interim solution against the ground truth R[DB_t]. By convention an
// empty interim set has precision 1 (nothing claimed, nothing wrong)
// and an empty truth set has recall 1.
func RecallPrecision(interim, truth arm.RuleSet) (recall, precision float64) {
	inter := interim.IntersectCount(truth)
	if len(truth) == 0 {
		recall = 1
	} else {
		recall = float64(inter) / float64(len(truth))
	}
	if len(interim) == 0 {
		precision = 1
	} else {
		precision = float64(inter) / float64(len(interim))
	}
	return
}

// Average computes the mean recall and precision over many resources'
// interim solutions — the "average recall and precision" curves of
// Figure 2.
func Average(interims []arm.RuleSet, truth arm.RuleSet) (recall, precision float64) {
	if len(interims) == 0 {
		return 0, 0
	}
	for _, in := range interims {
		r, p := RecallPrecision(in, truth)
		recall += r
		precision += p
	}
	n := float64(len(interims))
	return recall / n, precision / n
}

// Point is one sample of a convergence curve.
type Point struct {
	Step      int64   // simulation step
	Scans     float64 // local database scans completed (step·budget/|db|)
	Recall    float64
	Precision float64
}

// Series is a labelled convergence curve.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(p Point) { s.Points = append(s.Points, p) }

// FirstReach returns the first point at which recall and precision
// both reached the target, and whether any did.
func (s *Series) FirstReach(target float64) (Point, bool) {
	for _, p := range s.Points {
		if p.Recall >= target && p.Precision >= target {
			return p, true
		}
	}
	return Point{}, false
}

// Final returns the last sample; zero Point if empty.
func (s *Series) Final() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// WriteCSV emits "label,step,scans,recall,precision" rows for every
// series, with a header. Non-finite values become empty cells rather
// than literal NaN/Inf tokens, which most CSV importers reject.
func WriteCSV(w io.Writer, series ...*Series) error {
	if _, err := io.WriteString(w, "label,step,scans,recall,precision\n"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%s\n",
				csvEscape(s.Label), p.Step,
				csvFloat(p.Scans), csvFloat(p.Recall), csvFloat(p.Precision)); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvFloat formats one CSV cell; NaN and ±Inf render empty.
func csvFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// sparkTicks are the eight block-element levels of a sparkline.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values in [0,1] as a compact unicode strip —
// convergence curves in terminal output. Values outside [0,1] are
// clamped (±Inf included); NaN renders as a space so gaps stay
// visible. An empty input yields an empty string.
func Sparkline(values []float64) string {
	out := make([]rune, len(values))
	for i, v := range values {
		if math.IsNaN(v) {
			out[i] = ' '
			continue
		}
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		idx := int(v * float64(len(sparkTicks)-1))
		out[i] = sparkTicks[idx]
	}
	return string(out)
}

// RecallSparkline extracts the recall curve of a series as a
// sparkline.
func RecallSparkline(s *Series) string {
	vals := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vals[i] = p.Recall
	}
	return Sparkline(vals)
}
