package core

import (
	"sync"

	"secmr/internal/oblivious"
)

// Payloads is a grid-wide free list of payload counters: inbound
// counters their receiver superseded, handed to the next transmit of any
// resource as the storage its payload is dealt into.
//
// Ownership: a delivered counter belongs to its receiver. The sender
// keeps only the unrandomised sums it rerandomised the payload from, and
// nothing else reads the message after its delivery, so once the
// receiver replaces an edge's inbound counter its struct, stamp slice and
// ciphertexts are nobody's. That holds only while every payload object
// is delivered at most once — no duplicating transport (LossyLinks), no
// adversary hook that may keep or forward what it saw — and a repeat
// delivery of the counter an edge already stores is never handed back.
//
// The list is one capped stack for the whole grid: one resource's
// receives and sends do not balance, so a list per resource would miss
// where the grid as a whole would not. A counter offered to a full list
// is left to the collector. Safe for concurrent use by resources
// stepping on different engine workers.
type Payloads struct {
	mu    sync.Mutex
	free  []*oblivious.Counter
	stats PayloadStats
}

// PayloadStats counts a free list's traffic.
type PayloadStats struct {
	// Hits and Misses count transmits that took a recycled counter and
	// ones that found the list empty.
	Hits, Misses int64
	// Puts counts superseded counters offered, kept or not.
	Puts int64
	// Len is the current depth, Peak the deepest it has been, Cap the
	// bound.
	Len, Peak, Cap int
}

// NewPayloads returns an empty free list holding at most capacity
// counters.
func NewPayloads(capacity int) *Payloads {
	return &Payloads{free: make([]*oblivious.Counter, 0, capacity)}
}

// get pops a recycled counter, or returns nil when the list is empty (or
// nil: recycling off).
func (p *Payloads) get() *oblivious.Counter {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		p.stats.Misses++
		return nil
	}
	c := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.stats.Hits++
	return c
}

// put offers a counter its receiver superseded.
func (p *Payloads) put(c *oblivious.Counter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if len(p.free) == cap(p.free) {
		return
	}
	p.free = append(p.free, c)
	p.stats.Peak = max(p.stats.Peak, len(p.free))
}

// Stats returns a snapshot of the list's counters.
func (p *Payloads) Stats() PayloadStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Len, st.Cap = len(p.free), cap(p.free)
	return st
}
