// Package arm provides the association-rule-mining fundamentals the
// paper's §3 problem definition relies on: items, itemsets,
// transactions, databases, support counting, a centralized Apriori
// miner (used as the ground-truth oracle R[DB] for recall/precision),
// and rule derivation.
package arm

import (
	"sort"
	"strconv"
	"strings"
)

// Item is a single item identifier from the domain I = {i_1, ..., i_m}.
type Item int32

// Itemset is a sorted, duplicate-free set of items. The zero value is
// the empty itemset. All functions in this package preserve the
// sorted-unique invariant.
type Itemset []Item

// NewItemset builds a canonical (sorted, deduplicated) itemset from the
// given items.
func NewItemset(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// Clone returns an independent copy.
func (s Itemset) Clone() Itemset {
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Contains reports whether item x is a member (binary search).
func (s Itemset) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// ContainsAll reports whether every item of sub is a member of s
// (merge scan; both operands sorted).
func (s Itemset) ContainsAll(sub Itemset) bool {
	i := 0
	for _, x := range sub {
		for i < len(s) && s[i] < x {
			i++
		}
		if i >= len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Equal reports set equality.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t as a fresh itemset.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t as a fresh itemset.
func (s Itemset) Intersect(t Itemset) Itemset {
	out := make(Itemset, 0)
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Without returns s \ {x} as a fresh itemset.
func (s Itemset) Without(x Item) Itemset {
	out := make(Itemset, 0, len(s))
	for _, it := range s {
		if it != x {
			out = append(out, it)
		}
	}
	return out
}

// With returns s ∪ {x} as a fresh itemset.
func (s Itemset) With(x Item) Itemset {
	return s.Union(Itemset{x})
}

// Disjoint reports whether s ∩ t = ∅.
func (s Itemset) Disjoint(t Itemset) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// Key returns a canonical string encoding usable as a map key
// ("1,5,9"; empty set encodes as "").
func (s Itemset) Key() string {
	if len(s) == 0 {
		return ""
	}
	return string(s.AppendKey(nil))
}

// AppendKey appends the Key encoding to dst and returns it — the
// allocation-free form for callers that key into interned tables with
// a reusable scratch buffer.
func (s Itemset) AppendKey(dst []byte) []byte {
	for i, it := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(it), 10)
	}
	return dst
}

// String renders the itemset as "{1 5 9}".
func (s Itemset) String() string {
	if len(s) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(it)))
	}
	b.WriteByte('}')
	return b.String()
}
