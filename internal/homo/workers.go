package homo

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared crypto worker pool. Every parallel crypto operation in the
// repository — Paillier's EncryptZeroVec, the two halves of its noise
// draw and of its CRT decryption, and any future scheme's — fans out
// over this one pool rather than spawning goroutines per call, so
// concurrent callers time-share a fixed set of workers instead of
// oversubscribing the machine.
//
// The pool is lazily started on first parallel call and sized to
// GOMAXPROCS. Submission never blocks, and the hand-off is unbuffered:
// a task is handed over only to a worker parked on receive, which
// starts it at once. When no worker is idle the caller runs the rest
// of its batch inline — the saturated path is exactly the serial path.
// That is what keeps nested ParallelFor calls (a pool task that itself
// calls ParallelFor) deadlock-free: every task a caller waits for is
// already running on a worker, never queued behind the task that
// waits. A buffered hand-off would accept a helper no idle worker will
// ever take, and its caller would wait for it forever.

var (
	poolOnce  sync.Once
	poolTasks chan func()
	poolMu    sync.Mutex
	poolSize  int
)

// ensureWorkers grows the shared worker set to at least n goroutines.
// Workers park on the task channel when idle; the set never shrinks
// (idle workers cost one blocked goroutine each).
func ensureWorkers(n int) {
	poolOnce.Do(func() { poolTasks = make(chan func()) })
	poolMu.Lock()
	for poolSize < n {
		poolSize++
		go func() {
			for f := range poolTasks {
				f()
			}
		}()
	}
	poolMu.Unlock()
}

// ParallelFor runs fn(i) for every i in [0, n), fanning out over the
// shared worker pool at width GOMAXPROCS (read at call time; at width
// 1 helpers would only add scheduling overhead, so fn runs inline). The
// calling goroutine always participates, helpers steal indexes off a
// shared counter, and a panic in any index is re-raised on the caller
// after the batch drains. fn must be safe for concurrent invocation
// when GOMAXPROCS > 1.
func ParallelFor(n int, fn func(i int)) {
	w := runtime.GOMAXPROCS(0)
	if n <= 1 || w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	helpers := w - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	ensureWorkers(helpers)

	var (
		next     atomic.Int64
		panicked atomic.Pointer[any]
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
			}
		}()
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
submit:
	for j := 0; j < helpers; j++ {
		wg.Add(1)
		task := func() { defer wg.Done(); run() }
		select {
		case poolTasks <- task:
		default:
			// No worker is parked (all busy, e.g. a nested batch, or
			// not yet started): the caller covers the remaining work.
			wg.Done()
			break submit
		}
	}
	run()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}
