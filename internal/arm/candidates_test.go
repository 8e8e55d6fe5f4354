package arm

import (
	"sort"
	"testing"
)

var candTh = Thresholds{MinFreq: 0.15, MinConf: 0.6}

// keysFrom lists the keys of t's candidates from position i on.
func keysFrom(t *Candidates, i int) []string {
	var out []string
	for ; i < t.Len(); i++ {
		out = append(out, t.At(i).Key)
	}
	return out
}

func TestCandidatesEntry(t *testing.T) {
	tab := NewCandidates(candTh, 0)
	rule := NewRule(NewItemset(1), NewItemset(2), ThresholdConf)
	i, ok := tab.Add(rule)
	if !ok || i != 0 || tab.Len() != 1 {
		t.Fatalf("Add = %d, %v; Len %d", i, ok, tab.Len())
	}
	c := tab.At(0)
	if c.Key != rule.Key() || c.LambdaN != 6 || c.LambdaD != 10 || c.Companion != -1 {
		t.Fatalf("entry %+v", *c)
	}
	if j, ok := tab.Index(tab.Sym(&rule)); !ok || j != 0 {
		t.Fatalf("Index = %d, %v", j, ok)
	}
	if j, ok := tab.Add(rule); !ok || j != 0 || tab.Len() != 1 {
		t.Fatalf("re-Add = %d, %v; Len %d", j, ok, tab.Len())
	}
	tab.Seed(NewItemset(4, 5))
	if got := keysFrom(tab, 1); len(got) != 2 || got[0] != ">4|freq" || got[1] != ">5|freq" {
		t.Fatalf("Seed appended %v", got)
	}
}

// TestCandidatesCompanion links a confidence rule to its union's
// frequency rule whichever of the two arrives first.
func TestCandidatesCompanion(t *testing.T) {
	conf := NewRule(NewItemset(1), NewItemset(2), ThresholdConf)
	freq := NewRule(nil, NewItemset(1, 2), ThresholdFreq)

	before := NewCandidates(candTh, 0)
	f, _ := before.Add(freq)
	c, _ := before.Add(conf)
	if got := before.At(c).Companion; got != int32(f) {
		t.Fatalf("companion present first: linked to %d, want %d", got, f)
	}

	after := NewCandidates(candTh, 0)
	c, _ = after.Add(conf)
	other, _ := after.Add(NewRule(NewItemset(2), NewItemset(1), ThresholdConf))
	if after.At(c).Companion != -1 {
		t.Fatal("companion linked before it exists")
	}
	f, _ = after.Add(freq)
	for _, i := range []int{c, other} {
		if got := after.At(i).Companion; got != int32(f) {
			t.Fatalf("late companion of %s linked to %d, want %d", after.At(i).Key, got, f)
		}
	}
	if after.At(f).Companion != -1 {
		t.Fatal("a frequency rule got a companion")
	}
}

func TestCandidatesCap(t *testing.T) {
	tab := NewCandidates(candTh, 2)
	if _, ok := tab.Add(NewRule(NewItemset(1), NewItemset(2), ThresholdConf)); !ok {
		t.Fatal("two-item rule refused under a cap of 2")
	}
	for _, r := range []Rule{
		NewRule(NewItemset(1, 2), NewItemset(3), ThresholdConf),
		NewRule(nil, NewItemset(1, 2, 3), ThresholdFreq),
	} {
		if i, ok := tab.Add(r); ok || i != -1 {
			t.Fatalf("%s over the cap: Add = %d, %v", r, i, ok)
		}
		if i, ok := tab.Receive(r); ok || i != -1 {
			t.Fatalf("%s over the cap: Receive = %d, %v", r, i, ok)
		}
	}
	if tab.Len() != 1 {
		t.Fatalf("cap rejections grew the table to %d", tab.Len())
	}
}

// TestCandidatesReceive: an unknown rule brings exactly itself and its
// union's frequency rule; a known one adds nothing.
func TestCandidatesReceive(t *testing.T) {
	tab := NewCandidates(candTh, 0)
	tab.Seed(NewItemset(1, 2, 3))
	n := tab.Len()
	conf := NewRule(NewItemset(3), NewItemset(1), ThresholdConf)
	i, ok := tab.Receive(conf)
	if !ok || i != n {
		t.Fatalf("Receive = %d, %v, want %d", i, ok, n)
	}
	if got := keysFrom(tab, n); len(got) != 2 || got[0] != conf.Key() || got[1] != ">1,3|freq" {
		t.Fatalf("Receive appended %v", got)
	}
	if tab.At(i).Companion != int32(n+1) {
		t.Fatalf("received rule's companion %d, want %d", tab.At(i).Companion, n+1)
	}
	if j, ok := tab.Receive(conf); !ok || j != i || tab.Len() != n+2 {
		t.Fatalf("repeat Receive = %d, %v; Len %d", j, ok, tab.Len())
	}
	// A frequency rule is its own union's frequency rule.
	freq := NewRule(nil, NewItemset(2, 3), ThresholdFreq)
	if j, _ := tab.Receive(freq); j != n+2 || tab.Len() != n+3 {
		t.Fatalf("frequency Receive = %d; Len %d", j, tab.Len())
	}
}

// TestCandidatesExpand: the expansion appends what GenerateCandidates
// derives from the output, in key order, and nothing it already holds.
func TestCandidatesExpand(t *testing.T) {
	tab := NewCandidates(candTh, 0)
	tab.Seed(NewItemset(1, 2, 3))
	all := func(int) bool { return true }
	tab.Expand(all)
	n := tab.Len()
	got := keysFrom(tab, 3)
	if !sort.StringsAreSorted(got) {
		t.Fatalf("expansion suffix not in key order: %v", got)
	}
	truth, want := RuleSet{}, RuleSet{}
	for i := 0; i < 3; i++ {
		truth.Add(tab.At(i).Rule)
		want.Add(tab.At(i).Rule)
	}
	GenerateCandidates(truth, want)
	if n != len(want) || len(got) != len(want)-3 {
		t.Fatalf("expansion grew the table to %d, GenerateCandidates to %d", n, len(want))
	}
	for _, k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("expansion added %s, which GenerateCandidates did not", k)
		}
	}
	tab.Expand(func(i int) bool { return i < 3 })
	if tab.Len() != n {
		t.Fatalf("a repeat expansion over the same truth grew the table to %d", tab.Len())
	}
	tab.Expand(all)
	if !sort.StringsAreSorted(keysFrom(tab, n)) {
		t.Fatalf("second expansion suffix not in key order: %v", keysFrom(tab, n))
	}
}

// TestCandidatesOutput: a confidence rule is reported only with its own
// vote and its companion's; a frequency rule on its own vote.
func TestCandidatesOutput(t *testing.T) {
	tab := NewCandidates(candTh, 0)
	conf, _ := tab.Add(NewRule(NewItemset(1), NewItemset(2), ThresholdConf))
	orphan, _ := tab.Add(NewRule(NewItemset(7), NewItemset(8), ThresholdConf))
	freq, _ := tab.Add(NewRule(nil, NewItemset(1, 2), ThresholdFreq))
	for _, tc := range []struct {
		yes  []int
		want []int
	}{
		{yes: []int{conf, orphan, freq}, want: []int{conf, freq}},
		{yes: []int{conf, orphan}, want: nil},
		{yes: []int{freq}, want: []int{freq}},
		{yes: nil, want: nil},
	} {
		decide := func(i int) bool {
			for _, y := range tc.yes {
				if y == i {
					return true
				}
			}
			return false
		}
		out := tab.Output(decide)
		if len(out) != len(tc.want) {
			t.Fatalf("votes %v: output %v, want positions %v", tc.yes, out.Sorted(), tc.want)
		}
		for _, i := range tc.want {
			if !out.Has(tab.At(i).Rule) || !tab.InOutput(i, decide) {
				t.Fatalf("votes %v: %s missing from the output", tc.yes, tab.At(i).Key)
			}
		}
	}
}
