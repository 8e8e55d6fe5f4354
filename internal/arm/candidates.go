package arm

import "secmr/internal/intern"

// Candidate is one entry of a candidate table: the rule, its interned
// key, its threshold as the exact fraction LambdaN/LambdaD, and — for a
// confidence rule — Companion, the table index of its union's frequency
// rule (−1 until that rule is in the table).
type Candidate struct {
	Rule             Rule
	Sym              intern.Sym
	Key              string
	LambdaN, LambdaD int64
	Companion        int32
}

// Candidates is a miner's candidate set C of Algorithm 4 and the one
// statement of how it grows: universe seeding, the size cap, the
// receive handler's insert, the periodic expansion and §3's output
// filter. The plain, k-private and secure miners all grow their
// lattice through it; the ground-truth oracle (GroundTruth) and the
// k-TTP reference (internal/ktp) keep their own loops on purpose, as
// the independent statements the tests compare against.
//
// The table only appends, so the entries any call adds are the suffix
// [Len() before the call, Len()), and a miner keeps its per-candidate
// protocol state in a slice indexed by table position, extended over
// that suffix after each call. Entries are stable pointers.
type Candidates struct {
	th       Thresholds
	maxItems int
	list     []*Candidate
	idx      map[intern.Sym]int32
	// waiting holds the confidence rules whose companion is not in the
	// table yet, by the companion's symbol.
	waiting map[intern.Sym][]*Candidate
	// keyBuf is the scratch buffer Sym encodes keys into; the interner
	// copies on first sight, so repeat lookups never allocate.
	keyBuf []byte
}

// NewCandidates returns an empty table whose rules are voted against
// th; maxItems caps |LHS ∪ RHS| of every rule it admits (0: no cap).
func NewCandidates(th Thresholds, maxItems int) *Candidates {
	return &Candidates{th: th, maxItems: maxItems,
		idx: map[intern.Sym]int32{}, waiting: map[intern.Sym][]*Candidate{}}
}

// Len returns the number of candidates.
func (t *Candidates) Len() int { return len(t.list) }

// At returns candidate i.
func (t *Candidates) At(i int) *Candidate { return t.list[i] }

// Sym interns rule's key.
func (t *Candidates) Sym(rule *Rule) intern.Sym {
	t.keyBuf = rule.AppendKey(t.keyBuf[:0])
	return intern.SBytes(t.keyBuf)
}

// Index returns the position of the rule with key sym.
func (t *Candidates) Index(sym intern.Sym) (int, bool) {
	i, ok := t.idx[sym]
	return int(i), ok
}

// Add returns rule's position, appending it first if it is new. It
// reports false when the rule is new and over the size cap.
func (t *Candidates) Add(rule Rule) (int, bool) {
	sym := t.Sym(&rule)
	if i, ok := t.idx[sym]; ok {
		return int(i), true
	}
	if t.maxItems > 0 && len(rule.LHS)+len(rule.RHS) > t.maxItems {
		return -1, false
	}
	ln, ld := Rational(t.th.Lambda(rule.Kind))
	c := &Candidate{Rule: rule, Sym: sym, Key: intern.Str(sym), LambdaN: ln, LambdaD: ld, Companion: -1}
	i := int32(len(t.list))
	t.idx[sym] = i
	t.list = append(t.list, c)
	if rule.Kind == ThresholdConf {
		comp := NewRule(nil, rule.Union(), ThresholdFreq)
		csym := t.Sym(&comp)
		if j, ok := t.idx[csym]; ok {
			c.Companion = j
		} else {
			t.waiting[csym] = append(t.waiting[csym], c)
		}
	} else if w, ok := t.waiting[sym]; ok {
		for _, d := range w {
			d.Companion = i
		}
		delete(t.waiting, sym)
	}
	return int(i), true
}

// Seed adds the frequency rule ∅⇒{i} of every item of the universe.
func (t *Candidates) Seed(universe Itemset) {
	for _, i := range universe {
		t.Add(NewRule(nil, Itemset{i}, ThresholdFreq))
	}
}

// Receive is Algorithm 4's receive handler: a rule a neighbour sent
// that is not in the table is added together with the frequency rule
// of its union. It returns the rule's position, or false when the size
// cap rejects it.
func (t *Candidates) Receive(rule Rule) (int, bool) {
	if i, ok := t.idx[t.Sym(&rule)]; ok {
		return int(i), true
	}
	i, ok := t.Add(rule)
	if ok {
		t.Add(NewRule(nil, rule.Union(), ThresholdFreq))
	}
	return i, ok
}

// Expand is Algorithm 4's periodic pass: GenerateCandidates over the
// rules Output(decide) reports, each new rule the cap admits appended
// in RuleSet.Sorted order.
func (t *Candidates) Expand(decide func(i int) bool) {
	truth := t.Output(decide)
	existing := make(RuleSet, len(t.list))
	for _, c := range t.list {
		existing[c.Key] = c.Rule
	}
	before := len(existing)
	GenerateCandidates(truth, existing)
	if len(existing) == before {
		return
	}
	for _, rule := range existing.Sorted() {
		t.Add(rule)
	}
}

// InOutput is §3's filter, "confident rules between frequent
// itemsets": candidate i is reported when decide(i) holds and, for a
// confidence rule, decide holds for its companion too.
func (t *Candidates) InOutput(i int, decide func(i int) bool) bool {
	if c := t.list[i]; c.Rule.Kind == ThresholdConf {
		return decide(i) && c.Companion >= 0 && decide(int(c.Companion))
	}
	return decide(i)
}

// Output returns the rules InOutput admits.
func (t *Candidates) Output(decide func(i int) bool) RuleSet {
	out := RuleSet{}
	for i, c := range t.list {
		if t.InOutput(i, decide) {
			out[c.Key] = c.Rule
		}
	}
	return out
}
