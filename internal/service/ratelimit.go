package service

import (
	"sync"
	"time"
)

// tokenBucket is a classic rate limiter: capacity burst, refilled at
// rate tokens/second, one token per transaction. take either debits
// the whole batch or nothing, returning how long the caller should
// wait before the batch would fit — the Retry-After hint.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int, now time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

func (b *tokenBucket) take(n int, now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	need := float64(n)
	if need <= b.tokens {
		b.tokens -= need
		return true, 0
	}
	// Time until the deficit refills. A batch larger than the burst can
	// never fit; report the full-drain time so clients back off hard.
	deficit := need - b.tokens
	if need > b.burst {
		deficit = b.burst
	}
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// refund gives back n tokens a successful take debited, for a batch a
// later gate refused.
func (b *tokenBucket) refund(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+float64(n), b.burst)
}
