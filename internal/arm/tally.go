package arm

// Tally is one rule's local vote over a growing database (Algorithm 2's
// cyclic reading): Count and Sum are the votes of Tx[:Pos]. A
// transaction votes on a frequency rule unconditionally and on a
// confidence rule only when it contains the LHS (§4.1's two vote
// kinds); it votes yes when it also contains the union.
type Tally struct {
	Rule       Rule
	Pos        int
	Count, Sum int64
	union      Itemset // Rule.Union(): Advance tests it against every counted transaction
}

// NewTally starts a rule's vote at the top of the database.
func NewTally(rule Rule) Tally { return Tally{Rule: rule, union: rule.Union()} }

// Advance counts up to budget more transactions of db and reports
// whether the totals changed.
func (t *Tally) Advance(db *Database, budget int) (changed bool) {
	for end := min(t.Pos+budget, db.Len()); t.Pos < end; t.Pos++ {
		tx := db.Tx[t.Pos]
		if len(t.Rule.LHS) == 0 || tx.ContainsAll(t.Rule.LHS) {
			t.Count++
			changed = true
			if tx.ContainsAll(t.union) {
				t.Sum++
			}
		}
	}
	return changed
}

// Totals returns the vote over the whole current database: the running
// totals plus the tail Advance has not reached yet, so a SupportPair
// rescan returns the same pair.
func (t *Tally) Totals(db *Database) (count, sum int64) {
	cl, cb := db.SupportPairFrom(t.Pos, t.Rule.LHS, t.Rule.RHS)
	return t.Count + int64(cl), t.Sum + int64(cb)
}
