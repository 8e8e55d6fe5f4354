package experiments

import (
	"fmt"
	"io"
)

// MessagePoint is one sample of the communication-locality experiment.
type MessagePoint struct {
	Resources    int
	Significance float64
	// MsgsPerResource is the total protocol messages sent divided by
	// the number of resources, measured at 90% convergence.
	MsgsPerResource float64
	StepsTo90       int
	Converged       bool
}

// MessageComplexity measures the paper's scalability claim from the
// communication side: because Secure-Majority-Rule is local, the
// number of messages each resource sends to settle a (significant)
// vote stays constant as the grid grows — the property behind "the
// algorithm presented here can be shown to scale to millions of
// resources" (§1). Single-itemset setup as in Figure 3.
func MessageComplexity(sc Scale, resourceCounts []int, sig float64, paillierBits int) ([]MessagePoint, error) {
	scheme, err := schemeFor(paillierBits)
	if err != nil {
		return nil, err
	}
	out := make([]MessagePoint, len(resourceCounts))
	for i, n := range resourceCounts {
		out[i] = singleItemsetRun(sc, scheme, n, sig)
	}
	return out, nil
}

// RenderMessageComplexity prints the locality table.
func RenderMessageComplexity(w io.Writer, pts []MessagePoint) error {
	if _, err := fmt.Fprintf(w, "%-12s %18s %14s %10s\n",
		"resources", "msgs/resource", "steps-to-90%", "converged"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%-12d %18.1f %14d %10v\n",
			p.Resources, p.MsgsPerResource, p.StepsTo90, p.Converged); err != nil {
			return err
		}
	}
	return nil
}
