package arm

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Threshold identifies which global threshold a candidate rule's
// majority vote is held against (the λ of Algorithm 4's ⟨X⇒Y, λ⟩
// pairs).
type Threshold uint8

const (
	// ThresholdFreq marks a frequency vote (λ = MinFreq): the rule
	// ∅⇒X asks whether X is frequent.
	ThresholdFreq Threshold = iota
	// ThresholdConf marks a confidence vote (λ = MinConf): the rule
	// X⇒Y asks whether the rule is confident.
	ThresholdConf
)

func (t Threshold) String() string {
	if t == ThresholdFreq {
		return "freq"
	}
	return "conf"
}

// Rule is a candidate or correct association rule LHS ⇒ RHS together
// with the threshold kind it is voted against. LHS and RHS are
// disjoint; LHS may be empty (itemset-frequency rules).
type Rule struct {
	LHS, RHS Itemset
	Kind     Threshold
}

// NewRule canonicalizes and returns a rule.
func NewRule(lhs, rhs Itemset, kind Threshold) Rule {
	return Rule{LHS: NewItemset(lhs...), RHS: NewItemset(rhs...), Kind: kind}
}

// Key returns a canonical map key ("1,2>3|conf").
func (r Rule) Key() string {
	return string(r.AppendKey(nil))
}

// AppendKey appends the Key encoding to dst and returns it — the
// allocation-free form for per-message key computation against a
// reusable scratch buffer.
func (r Rule) AppendKey(dst []byte) []byte {
	dst = r.LHS.AppendKey(dst)
	dst = append(dst, '>')
	dst = r.RHS.AppendKey(dst)
	dst = append(dst, '|')
	return append(dst, r.Kind.String()...)
}

// String renders "{1 2} => {3} [conf]".
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s [%s]", r.LHS, r.RHS, r.Kind)
}

// Union returns LHS ∪ RHS.
func (r Rule) Union() Itemset { return r.LHS.Union(r.RHS) }

// ParseRuleKey inverts Key.
func ParseRuleKey(key string) (Rule, error) {
	body, kindStr, ok := strings.Cut(key, "|")
	if !ok {
		return Rule{}, fmt.Errorf("arm: bad rule key %q", key)
	}
	l, rr, ok := strings.Cut(body, ">")
	if !ok {
		return Rule{}, fmt.Errorf("arm: bad rule key %q", key)
	}
	lhs, err := ParseItemset(l)
	if err != nil {
		return Rule{}, err
	}
	rhs, err := ParseItemset(rr)
	if err != nil {
		return Rule{}, err
	}
	var kind Threshold
	switch kindStr {
	case "freq":
		kind = ThresholdFreq
	case "conf":
		kind = ThresholdConf
	default:
		return Rule{}, fmt.Errorf("arm: bad rule kind %q", kindStr)
	}
	return Rule{LHS: lhs, RHS: rhs, Kind: kind}, nil
}

// RuleSet is a set of rules keyed by Rule.Key().
type RuleSet map[string]Rule

// NewRuleSet builds a RuleSet from rules.
func NewRuleSet(rules ...Rule) RuleSet {
	rs := RuleSet{}
	for _, r := range rules {
		rs[r.Key()] = r
	}
	return rs
}

// Add inserts r, reporting whether it was new.
func (rs RuleSet) Add(r Rule) bool {
	k := r.Key()
	if _, ok := rs[k]; ok {
		return false
	}
	rs[k] = r
	return true
}

// Has reports membership.
func (rs RuleSet) Has(r Rule) bool { _, ok := rs[r.Key()]; return ok }

// IntersectCount returns |rs ∩ other|.
func (rs RuleSet) IntersectCount(other RuleSet) int {
	a, b := rs, other
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// Sorted returns the rules in deterministic key order.
func (rs RuleSet) Sorted() []Rule {
	keys := make([]string, 0, len(rs))
	for k := range rs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Rule, len(keys))
	for i, k := range keys {
		out[i] = rs[k]
	}
	return out
}

// Thresholds carries the two global mining thresholds.
type Thresholds struct {
	MinFreq float64 // frequency threshold, in (0, 1]
	MinConf float64 // confidence threshold, in (0, 1]
}

// Lambda returns the majority ratio a rule of the given kind is voted
// against.
func (t Thresholds) Lambda(kind Threshold) float64 {
	if kind == ThresholdFreq {
		return t.MinFreq
	}
	return t.MinConf
}

// Rational converts a float threshold to an exact fraction λn/λd,
// preferring the smallest denominator that represents it exactly:
// 0.15 becomes 15/100 rather than 157286/2^20. λd multiplies every
// encrypted Δ = λd·sum − λn·count the secure miner evaluates, so it
// sets how large |DB| may grow before a Δ leaves the cryptosystem's
// signed plaintext range (core.MaxDBLen; 2^60 for Shamir). A threshold
// no small denominator fits (1/3) falls through to 2^20.
func Rational(x float64) (int64, int64) {
	for _, den := range []int64{10, 100, 1000, 10000, 1 << 20} {
		n := math.Round(x * float64(den))
		if math.Abs(x*float64(den)-n) < 1e-9 {
			return int64(n), den
		}
	}
	return int64(math.Round(x * (1 << 20))), 1 << 20
}

// Correct evaluates a rule's vote against db exactly: a rule ⟨A⇒B, λ⟩
// is correct when Support(A∪B) ≥ λ·Support(A), with Support(∅) = |DB|.
func Correct(db *Database, r Rule, th Thresholds) bool {
	countLHS, countBoth := db.SupportPair(r.LHS, r.RHS)
	return float64(countBoth) >= th.Lambda(r.Kind)*float64(countLHS) && countLHS > 0
}

// GroundTruth computes R[DB] — the set of correct rules the
// Majority-Rule candidate lattice converges to — by emulating
// Algorithm 4's candidate generation with exact database counts until
// fixpoint:
//
//  1. seed with ⟨∅⇒{i}, MinFreq⟩ for every item of the universe;
//  2. let R̃ be the correct candidates: a frequency rule is correct
//     when its vote passes; a confidence rule additionally requires
//     its union itemset to be frequent (§3 defines correct rules as
//     confident rules *between frequent itemsets*);
//  3. from each correct ⟨∅⇒X, MinFreq⟩ generate ⟨X\{i}⇒{i}, MinConf⟩;
//  4. merge same-LHS, same-λ pairs differing in the last RHS item,
//     Apriori-style, verifying every RHS-contraction is correct;
//  5. repeat from 2 until no new candidates appear.
//
// The returned set is R̃ at fixpoint, which equals the closed form
// ClosedFormTruth (asserted by property test). This is the reference
// the recall/precision metrics of §6.1 compare interim solutions
// against. universe may be nil, in which case the items observed in db
// are used. maxItems caps |LHS∪RHS| (0 = unlimited) and must match the
// miner's cap for an apples-to-apples comparison.
func GroundTruth(db *Database, th Thresholds, universe Itemset, maxItems int) RuleSet {
	if universe == nil {
		universe = db.Items()
	}
	cands := RuleSet{}
	for _, i := range universe {
		cands.Add(NewRule(nil, Itemset{i}, ThresholdFreq))
	}
	// Support cache: itemset key -> absolute support.
	supCache := map[string]int{}
	support := func(x Itemset) int {
		k := x.Key()
		if s, ok := supCache[k]; ok {
			return s
		}
		s := db.Support(x)
		supCache[k] = s
		return s
	}
	voteOK := func(r Rule) bool {
		cl := support(r.LHS)
		if len(r.LHS) == 0 {
			cl = db.Len()
		}
		cb := support(r.Union())
		return cl > 0 && float64(cb) >= th.Lambda(r.Kind)*float64(cl)
	}
	frequent := func(x Itemset) bool {
		return db.Len() > 0 && float64(support(x)) >= th.MinFreq*float64(db.Len())
	}

	truth := RuleSet{}
	for {
		grew := false
		// Step 2: promote correct candidates.
		for _, r := range cands {
			if truth.Has(r) || !voteOK(r) {
				continue
			}
			if r.Kind == ThresholdConf && !frequent(r.Union()) {
				continue
			}
			truth.Add(r)
			grew = true
		}
		// Steps 3–4: generate new candidates from the correct set.
		before := len(cands)
		GenerateCandidates(truth, cands)
		if maxItems > 0 {
			for key, r := range cands {
				if len(r.LHS)+len(r.RHS) > maxItems {
					delete(cands, key)
				}
			}
		}
		if len(cands) > before {
			grew = true
		}
		if !grew {
			return truth
		}
	}
}

// ClosedFormTruth computes R[DB] directly from its characterization:
//
//	R[DB] = {⟨X⇒Y, λ⟩ : X∩Y=∅, Y≠∅, X∪Y frequent,
//	          Support(X∪Y) ≥ λ·Support(X)}
//
// where frequency rules have X=∅ and λ=MinFreq, and confidence rules
// have λ=MinConf (any X, including ∅). The fixpoint GroundTruth
// provably converges to this set because confidence is monotone under
// RHS contraction; ClosedFormTruth exists as an independent oracle for
// property-testing GroundTruth. Exponential in the largest frequent
// itemset; use on small inputs only.
func ClosedFormTruth(db *Database, th Thresholds, maxItems int) RuleSet {
	truth := RuleSet{}
	f := Apriori(db, th.MinFreq)
	for _, z := range f.Sets {
		if maxItems > 0 && len(z) > maxItems {
			continue
		}
		truth.Add(NewRule(nil, z, ThresholdFreq))
		supZ := f.Support[z.Key()]
		// Every split of z into LHS/RHS (LHS possibly empty, RHS not).
		for mask := 0; mask < 1<<len(z); mask++ {
			var lhs, rhs Itemset
			for i, it := range z {
				if mask&(1<<i) != 0 {
					lhs = append(lhs, it)
				} else {
					rhs = append(rhs, it)
				}
			}
			if len(rhs) == 0 {
				continue
			}
			supLHS := db.Len()
			if len(lhs) > 0 {
				supLHS = f.Support[lhs.Key()]
			}
			if supLHS > 0 && float64(supZ) >= th.MinConf*float64(supLHS) {
				truth.Add(Rule{LHS: lhs, RHS: rhs, Kind: ThresholdConf})
			}
		}
	}
	return truth
}

// GenerateCandidates applies Algorithm 4's two generation rules to the
// correct set "truth", inserting any new candidates into cands. Every
// confidence candidate is accompanied by the frequency candidate of
// its union itemset (mirroring Algorithm 4's receive handler, which
// adds ⟨∅⇒X∪Y⟩ alongside any circulating ⟨X⇒Y⟩), so resources can
// always evaluate the "between frequent itemsets" part of rule
// correctness locally. GenerateCandidates is shared by the
// ground-truth oracle and by every miner implementation (plain,
// k-private, and secure), so all four agree on the candidate lattice
// by construction.
func GenerateCandidates(truth RuleSet, cands RuleSet) {
	addConf := func(r Rule) {
		if cands.Add(r) {
			cands.Add(NewRule(nil, r.Union(), ThresholdFreq))
		}
	}
	// Rule 1: from each correct frequency rule ⟨∅⇒X⟩, derive the
	// confidence candidates ⟨X\{i}⇒{i}⟩.
	for _, r := range truth {
		if r.Kind != ThresholdFreq || len(r.LHS) != 0 {
			continue
		}
		for _, i := range r.RHS {
			addConf(NewRule(r.RHS.Without(i), Itemset{i}, ThresholdConf))
		}
	}
	// Rule 2: merge pairs with identical LHS and λ whose RHSs differ
	// only in the last item.
	byLHS := map[string][]Rule{}
	for _, r := range truth {
		byLHS[r.LHS.Key()+"|"+r.Kind.String()] = append(byLHS[r.LHS.Key()+"|"+r.Kind.String()], r)
	}
	for _, group := range byLHS {
		sort.Slice(group, func(i, j int) bool { return group[i].RHS.Key() < group[j].RHS.Key() })
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				r1, r2 := group[i], group[j]
				if len(r1.RHS) != len(r2.RHS) || len(r1.RHS) == 0 {
					continue
				}
				n := len(r1.RHS)
				if !samePrefix(r1.RHS, r2.RHS, n-1) || r1.RHS[n-1] == r2.RHS[n-1] {
					continue
				}
				merged := r1.RHS.Union(r2.RHS)
				cand := Rule{LHS: r1.LHS, RHS: merged, Kind: r1.Kind}
				if cands.Has(cand) {
					continue
				}
				// Verify every contraction Y∪{i1,i2}\{i3} is correct
				// (the ∀ i3 ∈ Y check; Y here is the common prefix).
				ok := true
				for k := 0; k < n-1; k++ {
					contr := Rule{LHS: r1.LHS, RHS: merged.Without(r1.RHS[k]), Kind: r1.Kind}
					if !truth.Has(contr) {
						ok = false
						break
					}
				}
				if ok {
					if cand.Kind == ThresholdConf {
						addConf(cand)
					} else {
						cands.Add(cand)
					}
				}
			}
		}
	}
}
