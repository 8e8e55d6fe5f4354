package arm

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Transaction is a customer transaction: an itemset with an implicit
// identifier (its position in the database).
type Transaction = Itemset

// Database is a list of transactions (the paper's DB). It is the unit
// that gets partitioned across resources. Append-only, matching the
// paper's no-deletion assumption (§3: deletions are simulated by
// negating transactions at a higher layer).
type Database struct {
	Tx []Transaction
}

// NewDatabase wraps the given transactions.
func NewDatabase(tx ...Transaction) *Database { return &Database{Tx: tx} }

// Len returns |DB|.
func (db *Database) Len() int { return len(db.Tx) }

// Append adds transactions at the end (database growth, §3 "Database
// Model").
func (db *Database) Append(tx ...Transaction) { db.Tx = append(db.Tx, tx...) }

// Absorb appends up to n transactions pulled from f: one step of
// dynamic-database growth. A nil feed is a static database.
func (db *Database) Absorb(f Feed, n int) {
	for ; f != nil && n > 0; n-- {
		tx, ok := f.Pull()
		if !ok {
			return
		}
		db.Append(tx)
	}
}

// Clone deep-copies the database.
func (db *Database) Clone() *Database {
	out := &Database{Tx: make([]Transaction, len(db.Tx))}
	for i, t := range db.Tx {
		out.Tx[i] = t.Clone()
	}
	return out
}

// Support returns Support(X, DB): the number of transactions containing
// every item of X. Support of the empty itemset is |DB|.
func (db *Database) Support(x Itemset) int {
	n := 0
	for _, t := range db.Tx {
		if t.ContainsAll(x) {
			n++
		}
	}
	return n
}

// Freq returns Freq(X, DB) = Support/|DB|; zero for an empty database.
func (db *Database) Freq(x Itemset) float64 {
	if len(db.Tx) == 0 {
		return 0
	}
	return float64(db.Support(x)) / float64(len(db.Tx))
}

// SupportPair counts, in one scan, the transactions containing lhs and
// the transactions containing lhs ∪ rhs — the (count, sum) pair a
// confidence vote needs.
func (db *Database) SupportPair(lhs, rhs Itemset) (countLHS, countBoth int) {
	return db.SupportPairFrom(0, lhs, rhs)
}

// SupportPairFrom is SupportPair over the transactions from index from
// on: the tail an incremental scan stopped at from has not counted yet.
func (db *Database) SupportPairFrom(from int, lhs, rhs Itemset) (countLHS, countBoth int) {
	for _, t := range db.Tx[from:] {
		if t.ContainsAll(lhs) {
			countLHS++
			if t.ContainsAll(rhs) {
				countBoth++
			}
		}
	}
	return
}

// Items returns the set of distinct items appearing in the database.
func (db *Database) Items() Itemset {
	seen := map[Item]bool{}
	for _, t := range db.Tx {
		for _, it := range t {
			seen[it] = true
		}
	}
	out := make(Itemset, 0, len(seen))
	for it := range seen {
		out = append(out, it)
	}
	return NewItemset(out...)
}

// Merge returns a new database that is the concatenation of the given
// partitions (DB^V for a group of resources V).
func Merge(parts ...*Database) *Database {
	out := &Database{}
	for _, p := range parts {
		out.Tx = append(out.Tx, p.Tx...)
	}
	return out
}

// WriteTo serializes the database in the conventional one-transaction-
// per-line, space-separated-items format (.dat).
func (db *Database) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, t := range db.Tx {
		var sb strings.Builder
		for i, it := range t {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(int(it)))
		}
		sb.WriteByte('\n')
		k, err := bw.WriteString(sb.String())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadDatabase parses the .dat format written by WriteTo.
func ReadDatabase(r io.Reader) (*Database, error) {
	db := &Database{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		items := make([]Item, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("arm: line %d: bad item %q: %w", line, f, err)
			}
			items = append(items, Item(v))
		}
		db.Tx = append(db.Tx, NewItemset(items...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arm: reading database: %w", err)
	}
	return db, nil
}
