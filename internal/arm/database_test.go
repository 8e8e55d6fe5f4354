package arm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func sampleDB() *Database {
	return NewDatabase(
		NewItemset(1, 2, 3),
		NewItemset(1, 2),
		NewItemset(2, 3),
		NewItemset(1, 3),
		NewItemset(1, 2, 3, 4),
	)
}

func TestSupportAndFreq(t *testing.T) {
	db := sampleDB()
	cases := []struct {
		set  Itemset
		want int
	}{
		{NewItemset(1), 4},
		{NewItemset(2), 4},
		{NewItemset(1, 2), 3},
		{NewItemset(1, 2, 3), 2},
		{NewItemset(4), 1},
		{NewItemset(9), 0},
		{Itemset{}, 5},
	}
	for _, c := range cases {
		if got := db.Support(c.set); got != c.want {
			t.Errorf("Support(%v)=%d want %d", c.set, got, c.want)
		}
	}
	if f := db.Freq(NewItemset(1)); f != 0.8 {
		t.Errorf("Freq = %v want 0.8", f)
	}
	if f := (&Database{}).Freq(NewItemset(1)); f != 0 {
		t.Errorf("empty db freq = %v", f)
	}
}

func TestSupportPair(t *testing.T) {
	db := sampleDB()
	cl, cb := db.SupportPair(NewItemset(1), NewItemset(2))
	if cl != 4 || cb != 3 {
		t.Errorf("SupportPair = (%d,%d) want (4,3)", cl, cb)
	}
	cl, cb = db.SupportPair(Itemset{}, NewItemset(3))
	if cl != 5 || cb != 4 {
		t.Errorf("empty-LHS SupportPair = (%d,%d) want (5,4)", cl, cb)
	}
}

func TestItems(t *testing.T) {
	if got := sampleDB().Items(); !got.Equal(NewItemset(1, 2, 3, 4)) {
		t.Errorf("Items = %v", got)
	}
}

func TestMerge(t *testing.T) {
	a := NewDatabase(NewItemset(1))
	b := NewDatabase(NewItemset(2), NewItemset(3))
	m := Merge(a, b)
	if m.Len() != 3 {
		t.Fatalf("merged len = %d", m.Len())
	}
}

func TestAppend(t *testing.T) {
	db := NewDatabase(NewItemset(1))
	db.Append(NewItemset(2), NewItemset(3))
	if db.Len() != 3 {
		t.Fatalf("len = %d", db.Len())
	}
	if !db.Tx[1].Equal(NewItemset(2)) || !db.Tx[2].Equal(NewItemset(3)) {
		t.Fatalf("appended in the wrong order: %v", db.Tx)
	}
}

func TestDatabaseIORoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("len %d want %d", back.Len(), db.Len())
	}
	for i := range db.Tx {
		if !back.Tx[i].Equal(db.Tx[i]) {
			t.Errorf("tx %d: %v want %v", i, back.Tx[i], db.Tx[i])
		}
	}
}

func TestReadDatabaseSkipsBlankAndRejectsGarbage(t *testing.T) {
	db, err := ReadDatabase(strings.NewReader("1 2\n\n3\n"))
	if err != nil || db.Len() != 2 {
		t.Fatalf("blank-line handling: len=%d err=%v", db.Len(), err)
	}
	if _, err := ReadDatabase(strings.NewReader("1 zebra\n")); err == nil {
		t.Fatal("expected error on non-numeric item")
	}
}

func TestCloneDeep(t *testing.T) {
	db := sampleDB()
	c := db.Clone()
	c.Tx[0][0] = 99
	if db.Tx[0][0] == 99 {
		t.Fatal("clone aliased transactions")
	}
}

func BenchmarkSupport(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := &Database{}
	for i := 0; i < 10000; i++ {
		tx := make([]Item, 10)
		for j := range tx {
			tx[j] = Item(rng.Intn(100))
		}
		db.Append(NewItemset(tx...))
	}
	q := NewItemset(3, 17, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Support(q)
	}
}
