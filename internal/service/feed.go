package service

import (
	"sync"
	"sync/atomic"

	"secmr/internal/arm"
)

// maxQueueSteps bounds every resource feed to this many mining steps of
// absorption: maxQueueSteps × GrowthPerStep queued transactions. A
// transaction admitted into a full-but-not-over feed waits at most this
// many steps, on any machine and backend, before its resource absorbs
// it. DESIGN §14.2 says why 32.
const maxQueueSteps = 32

// liveFeed is the bridge between a tenant ingestion handler and a grid
// resource: a FIFO of at most max transactions, drained by the mining
// loop at GrowthPerStep transactions per step. Its bytes also count
// against the global in-flight budget, charged by admit and returned by
// Pull.
//
// Push runs on HTTP handler goroutines; Pull and Tail run inside
// Grid.Step / snapshot under the grid mutex — hence the local lock.
type liveFeed struct {
	mu       sync.Mutex
	q        []arm.Transaction
	max      int
	inflight *atomic.Int64
}

func newLiveFeed(inflight *atomic.Int64, max int) *liveFeed {
	return &liveFeed{inflight: inflight, max: max}
}

// txCost is the byte charge one transaction holds against the global
// in-flight budget while queued: its item payload plus slice overhead.
func txCost(tx arm.Transaction) int64 {
	return int64(len(tx))*8 + 24
}

// push enqueues a batch whose cost was already admitted against the
// budget, unless it would take the feed past max: then it queues
// nothing and reports false. depth is the queue length after the call.
func (f *liveFeed) push(txs []arm.Transaction) (depth int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q)+len(txs) > f.max {
		return len(f.q), false
	}
	f.q = append(f.q, txs...)
	return len(f.q), true
}

// full reports whether push would refuse any batch at all: the
// predicate handleIngest checks before it decodes a body.
func (f *liveFeed) full() bool {
	return f.depth() >= f.max
}

// Pull implements arm.Feed: pop one transaction and release its budget
// charge.
func (f *liveFeed) Pull() (arm.Transaction, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q) == 0 {
		return nil, false
	}
	tx := f.q[0]
	f.inflight.Add(-txCost(tx))
	f.q = f.q[1:]
	if len(f.q) == 0 {
		// Reset the backing array so a drained feed doesn't pin the
		// high-water-mark allocation forever.
		f.q = nil
	}
	return tx, true
}

// Tail implements arm.Feed: the still-queued transactions, for grid
// snapshots.
func (f *liveFeed) Tail() []arm.Transaction {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]arm.Transaction(nil), f.q...)
}

// depth returns the queued transaction count.
func (f *liveFeed) depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.q)
}
