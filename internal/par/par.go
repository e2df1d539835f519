// Package par provides the one worker-pool shape the miners need: a bounded
// pool pulling item indices off an atomic counter. Callers write results into
// per-index slots, so output order — and therefore mining determinism — never
// depends on scheduling.
package par

import (
	"sync"
	"sync/atomic"
)

// ForWorker runs fn(w, i) for every i in [0, n) across at most workers
// goroutines; with workers <= 1 it degenerates to a plain loop on the calling
// goroutine. newWorker runs once on each pool goroutine (or once on the
// calling goroutine) and its result is passed to every fn call that
// goroutine executes, so fn's scratch buffers are never shared.
func ForWorker[W any](n, workers int, newWorker func() W, fn func(w W, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		w := newWorker()
		for i := 0; i < n; i++ {
			fn(w, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
