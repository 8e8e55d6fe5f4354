package main

import (
	"math/big"
	"sync"
	"time"
)

// The build VM does not run at one speed: the same deterministic 30-step
// churn episode, repeated in one process, took between 0.9 s and 1.7 s
// over five minutes, in stretches of seconds to minutes, and two suites of
// one binary run a quarter of an hour apart read 14.3 and 10.9 steps/s.
// No bound the contract allows holds against that. So an untraced run
// times a fixed piece of arithmetic of the benchmark's own beside the
// program, one slice for every calibEvery of measured work, and reports
// its times as they would read on a machine that runs a slice in
// calibRef: measured time x (calibRef / mean slice time). In the probe
// above this took the quartile spread of 20 s of churn stepping from 16 %
// to 3.5 %. serve_steady's query times are mostly waiting (a reader woken
// by a timer, a request handed between goroutines), do not follow the
// processor's speed and are reported as measured: scaling them made them
// worse.
//
// The slice is modular squaring of a 521-bit number with math/big, as it
// comes: multi-word multiplication, division, and the small allocations
// both make. That mix tracked the miner better than an allocation-free
// kernel (8 %) and about as well as one with map and slice churn added
// (2.8 %). Nothing in it calls into the repo, so a change to the program
// cannot move it. A slice is 2 ms so that, run beside a service, it ends
// before the Go scheduler's 10 ms preemption would cut it in two.
//
// What slows the machine down slows allocating code most: in its slow
// stretches the math/big slice and a mining step take up to twice as
// long, a loop over memory it already holds a quarter longer.
// Grid.ScoredOutput is part one and part the other: it counts itemsets in
// a partition, then builds and sorts its answer. On the churn workload's
// 2000-transaction partitions the counting is nearly all of it, on the
// static workload's 100-transaction ones about half. So the mine
// workloads' reads have a slice of their own: half the squarings, and
// integer arithmetic over a 32 KiB table for the other half. Over four
// minutes each, churn reads spread over 11.6 % as measured, 13.8 % scaled
// by the math/big slice and 4.8 % by a table-only one; static reads over
// 12.8 % as measured, 11.3 % by the math/big slice, 10.0 % by the table
// and 4.7 % by the two together.
const (
	calibSquarings = 3000
	calibScans     = 625000               // with calibSquarings/2 squarings, one read slice
	calibRef       = 2 * time.Millisecond // one slice on the build VM at its usual speed
	calibEvery     = 20 * time.Millisecond
)

type calibrator struct {
	mu     sync.Mutex
	work   func() // one slice
	spent  time.Duration
	slices int
	owed   time.Duration // measured work not yet matched by a slice
}

// newCalibrator returns the calibrator for work that allocates as it
// computes: mining steps, set-ups, HTTP handlers.
func newCalibrator() *calibrator {
	return &calibrator{work: squarer(calibSquarings)}
}

// newReadCalibrator returns the calibrator for Grid.ScoredOutput.
func newReadCalibrator() *calibrator {
	square := squarer(calibSquarings / 2)
	table, x := new([4096]uint64), uint64(12345)
	return &calibrator{work: func() {
		square()
		for i := 0; i < calibScans; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			table[x>>52] += x
		}
	}}
}

// squarer returns a func that squares a 521-bit number n times mod 2^521-1.
func squarer(n int) func() {
	mod := new(big.Int).Lsh(big.NewInt(1), 521)
	mod.Sub(mod, big.NewInt(1))
	x, sq, three := big.NewInt(12345), new(big.Int), big.NewInt(3)
	return func() {
		for i := 0; i < n; i++ {
			sq.Mul(x, x)
			x.Mod(sq, mod)
			x.Add(x, three)
		}
	}
}

// slice runs and times one slice.
func (c *calibrator) slice() {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := time.Now()
	c.work()
	c.spent += time.Since(t)
	c.slices++
}

// beside books d of measured single-goroutine work and runs the slices
// it is owed, between two pieces of that work. A nil calibrator (traced
// runs report times as measured) does nothing.
func (c *calibrator) beside(d time.Duration) {
	if c == nil {
		return
	}
	for c.owed += d; c.owed >= calibEvery; c.owed -= calibEvery {
		c.slice()
	}
}

// during runs a slice every calibEvery next to a program that has its
// own goroutines, until the returned func is called.
func (c *calibrator) during() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				c.slice()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// factor is what a measured time is multiplied by to read at reference
// speed; 1 before the first slice and for a nil calibrator.
func (c *calibrator) factor() float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slices == 0 {
		return 1
	}
	return float64(calibRef) * float64(c.slices) / float64(c.spent)
}
