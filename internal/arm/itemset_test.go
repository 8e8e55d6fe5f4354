package arm

import (
	"math/rand"
	"testing"
)

func TestNewItemsetCanonical(t *testing.T) {
	s := NewItemset(5, 1, 3, 1, 5)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("got %v want %v", s, want)
	}
}

func TestContains(t *testing.T) {
	s := NewItemset(2, 4, 6)
	for _, c := range []struct {
		x    Item
		want bool
	}{{2, true}, {4, true}, {6, true}, {1, false}, {3, false}, {7, false}} {
		if got := s.Contains(c.x); got != c.want {
			t.Errorf("Contains(%d)=%v want %v", c.x, got, c.want)
		}
	}
}

func TestContainsAll(t *testing.T) {
	s := NewItemset(1, 2, 3, 5, 8)
	if !s.ContainsAll(NewItemset(2, 5)) {
		t.Error("expected subset")
	}
	if !s.ContainsAll(Itemset{}) {
		t.Error("empty set is a subset of everything")
	}
	if s.ContainsAll(NewItemset(2, 4)) {
		t.Error("4 is not a member")
	}
	if (Itemset{}).ContainsAll(NewItemset(1)) {
		t.Error("nonempty not subset of empty")
	}
}

func TestUnionIntersectWithout(t *testing.T) {
	a, b := NewItemset(1, 3, 5), NewItemset(2, 3, 6)
	if got := a.Union(b); !got.Equal(NewItemset(1, 2, 3, 5, 6)) {
		t.Errorf("union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewItemset(3)) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Without(3); !got.Equal(NewItemset(1, 5)) {
		t.Errorf("without = %v", got)
	}
	if got := a.With(4); !got.Equal(NewItemset(1, 3, 4, 5)) {
		t.Errorf("with = %v", got)
	}
	if !a.Disjoint(NewItemset(2, 4)) || a.Disjoint(b) {
		t.Error("disjoint misbehaved")
	}
}

func TestStringRendering(t *testing.T) {
	if got := NewItemset(3, 1).String(); got != "{1 3}" {
		t.Errorf("String() = %q", got)
	}
	if got := (Itemset{}).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

// setOpsModel checks Union/Intersect/Without against map-based models.
func TestSetOpsAgainstModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomSet(rng, 8, 12)
		b := randomSet(rng, 8, 12)
		ma, mb := toMap(a), toMap(b)
		u := a.Union(b)
		for it := range ma {
			if !u.Contains(it) {
				t.Fatalf("union missing %d", it)
			}
		}
		for it := range mb {
			if !u.Contains(it) {
				t.Fatalf("union missing %d", it)
			}
		}
		if len(u) != len(union(ma, mb)) {
			t.Fatalf("union size %d want %d", len(u), len(union(ma, mb)))
		}
		ix := a.Intersect(b)
		for _, it := range ix {
			if !ma[it] || !mb[it] {
				t.Fatalf("intersect has stray %d", it)
			}
		}
		if a.Disjoint(b) != (len(ix) == 0) {
			t.Fatal("Disjoint inconsistent with Intersect")
		}
	}
}

func randomSet(rng *rand.Rand, maxLen, universe int) Itemset {
	n := rng.Intn(maxLen)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(rng.Intn(universe))
	}
	return NewItemset(items...)
}

func toMap(s Itemset) map[Item]bool {
	m := map[Item]bool{}
	for _, it := range s {
		m[it] = true
	}
	return m
}

func union(a, b map[Item]bool) map[Item]bool {
	m := map[Item]bool{}
	for k := range a {
		m[k] = true
	}
	for k := range b {
		m[k] = true
	}
	return m
}

func TestCloneIndependence(t *testing.T) {
	a := NewItemset(1, 2)
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("clone aliased original")
	}
}
