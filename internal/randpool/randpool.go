// Package randpool provides a scheme-agnostic precomputed-randomness
// pool: background workers keep a buffer of expensive random values
// (Paillier noise factors r^N) ready so the protocol thread only
// consumes.
//
// The pool is an optimization only: Get never blocks, and a miss means
// the caller computes the value inline and remains correct. The win
// requires spare cores — on a single-CPU host the workers compete with
// the protocol thread and the pool is a wash.
package randpool

import "sync"

// Pool buffers values produced by gen on background goroutines.
type Pool[T any] struct {
	ch   chan T
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New launches workers goroutines keeping up to buffer precomputed
// values ready. Both arguments must be positive. gen is called
// concurrently from every worker and must be safe for that.
func New[T any](buffer, workers int, gen func() T) *Pool[T] {
	if buffer < 1 || workers < 1 {
		panic("randpool: pool needs positive buffer and workers")
	}
	p := &Pool[T]{
		ch:   make(chan T, buffer),
		stop: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				v := gen()
				select {
				case <-p.stop:
					return
				case p.ch <- v:
				}
			}
		}()
	}
	return p
}

// Get returns a precomputed value when one is ready; ok is false when
// the buffer is empty (or the pool stopped) and the caller must compute
// inline. Never blocks.
func (p *Pool[T]) Get() (v T, ok bool) {
	select {
	case v = <-p.ch:
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// Stop drains the workers. Idempotent; Get keeps serving whatever
// remains buffered and then reports misses.
func (p *Pool[T]) Stop() {
	p.once.Do(func() {
		close(p.stop)
		p.wg.Wait()
	})
}
