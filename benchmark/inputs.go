package main

import (
	"math"
	"math/rand"
	"time"

	"secmr/internal/arm"
	"secmr/internal/quest"
)

// sampler deals out the workload's transactions for one run. The pool —
// PoolTxns Quest transactions from questSeed — is a fixed sequence, and
// every run consumes it in the same order block by block; --seed permutes
// the transactions inside each block of shuffleBlock. So the seed decides
// which resource holds which transaction and in what order it arrives,
// while the database after any whole number of blocks is the same multiset
// under every seed. A redrawn sample is a different problem: probes of the
// seed code showed it moves the frequent itemsets, and with them a churn
// run's steps per second, by +-15%, five times the timing noise of
// repeating one seed.
type sampler struct {
	pool []arm.Transaction
	rng  *rand.Rand
	// genTime is how long generating the pool took (quest.gen_ms).
	genTime time.Duration

	pos  int   // next pool position
	perm []int // the current block's order

	// Marker items (serve_steady): every transaction dealt carries marker
	// j when the running count floor(t*rate + j/markers) steps, so each
	// marker sits in rate of any stretch of the stream to within one
	// transaction — close under MinFreq, never over it by luck.
	markers    int
	markerBase arm.Item
	rate       float64
	t          int
}

// shuffleBlock is one step of a churn feed: 8 resources x GrowthPerStep 10.
const shuffleBlock = 80

func newSampler(w *workload, seed int64) *sampler {
	t0 := time.Now()
	g := quest.NewGenerator(quest.Params{
		NumItems: w.Items, NumPatterns: w.Patterns,
		AvgTransLen: questAvgTrans, AvgPatternLen: questAvgPat, Seed: questSeed,
	})
	pool := make([]arm.Transaction, 0, w.PoolTxns)
	for len(pool) < w.PoolTxns {
		// The service rejects empty transactions; keep the facade
		// workloads on the same distribution.
		if tx := g.Next(); len(tx) > 0 {
			pool = append(pool, tx)
		}
	}
	return &sampler{pool: pool, rng: rand.New(rand.NewSource(seed)), genTime: time.Since(t0),
		markers: w.Markers, markerBase: arm.Item(w.Items), rate: w.MarkerSeedFreq * w.MinFreq}
}

// fork returns a second generator's sampler: the same pool from a
// position of its own (the pool wraps), with its own shuffle stream.
func (s *sampler) fork(at int) *sampler {
	f := *s
	f.rng, f.pos, f.perm, f.t = rand.New(rand.NewSource(s.rng.Int63())), at%len(s.pool), nil, 0
	return &f
}

func (s *sampler) next() arm.Transaction {
	i := s.pos % shuffleBlock
	if i == 0 || s.perm == nil {
		s.perm = s.rng.Perm(shuffleBlock)
	}
	base := s.pos - i
	tx := s.pool[(base+s.perm[i])%len(s.pool)]
	s.pos++
	for j := 0; j < s.markers; j++ {
		phase := float64(j) / float64(s.markers)
		if math.Floor(float64(s.t+1)*s.rate+phase) > math.Floor(float64(s.t)*s.rate+phase) {
			tx = tx.Union(arm.Itemset{s.markerBase + arm.Item(j)})
		}
	}
	s.t++
	return tx
}

func (s *sampler) draw(n int) []arm.Transaction {
	out := make([]arm.Transaction, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// mineInputs is what one mine episode hands to the program.
type mineInputs struct {
	db       *arm.Database
	feeds    [][]arm.Transaction // nil for a static workload
	genTime  time.Duration
	universe arm.Itemset
}

func makeMineInputs(w *workload, seed int64, feedSteps int) *mineInputs {
	s := newSampler(w, seed)
	in := &mineInputs{db: arm.NewDatabase(s.draw(w.SeedTxns)...), genTime: s.genTime}
	in.universe = in.db.Items()
	if w.GrowthPerStep > 0 && feedSteps > 0 {
		// Drawn step by step across the resources, so a shorter feed is a
		// prefix of a longer one and two passes over one seed absorb the
		// same transactions however many steps each was sized for.
		in.feeds = make([][]arm.Transaction, w.Resources)
		for step := 0; step < feedSteps; step++ {
			for i := range in.feeds {
				in.feeds[i] = append(in.feeds[i], s.draw(w.GrowthPerStep)...)
			}
		}
	}
	return in
}

// absorbed returns the database the grid holds after steps steps: the
// seed plus the first steps*GrowthPerStep transactions of every feed
// (core's accountant pulls exactly GrowthPerStep per tick until a feed
// is dry).
func (in *mineInputs) absorbed(w *workload, steps int) *arm.Database {
	all := in.db.Clone()
	for _, f := range in.feeds {
		n := steps * w.GrowthPerStep
		if n > len(f) {
			n = len(f)
		}
		all.Append(f[:n]...)
	}
	return all
}
