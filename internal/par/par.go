// Package par is the deterministic parallel analysis engine: a minimal
// worker-pool primitive that fans index-addressed work across GOMAXPROCS
// workers. Every analysis phase in this repository (sanitization, CBG
// batch locates, VP selection, street-level ranking, the experiment
// drivers) routes its per-target loops through For/ForWorker.
//
// Determinism contract (DESIGN.md §3.5): the pool guarantees only that
// f(i) runs exactly once for every i in [0, n). Callers make the result
// deterministic by (1) writing results to index i of a pre-sized slice —
// never appending from workers, (2) drawing no randomness from shared
// sequential sources inside f — all campaign randomness is keyed by
// (src, dst, salt), and (3) reducing the result slice in index order
// after the pool returns. Under those rules the output is bit-identical
// for any worker count and any scheduling, so GOMAXPROCS=1 and
// GOMAXPROCS=N produce byte-identical reports.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs f(i) for every i in [0, n) across min(GOMAXPROCS, n) workers.
// When only one worker would run, f is called inline on the caller's
// goroutine with zero scheduling overhead — the single-core path costs no
// more than the plain loop it replaces.
func For(n int, f func(i int)) {
	forWorkers(runtime.GOMAXPROCS(0), n, nil, f)
}

// ForWorker is For with the worker id (0 ≤ worker < workers) passed to f,
// so callers can keep per-worker scratch buffers without a sync.Pool.
func ForWorker(n int, f func(worker, i int)) {
	ForWorkers(runtime.GOMAXPROCS(0), n, f)
}

// Workers returns the number of workers For and ForWorker would use for
// n items — callers size per-worker scratch with it.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForWorkers is ForWorker with an explicit worker-count cap (the
// determinism tests force 1 vs N without touching GOMAXPROCS). The
// effective worker count is clamped to [1, n]. A panic in any worker is
// re-raised on the caller's goroutine after the remaining workers drain.
func ForWorkers(workers, n int, f func(worker, i int)) {
	forWorkers(workers, n, f, nil)
}

// forWorkers runs f(worker, i), or g(i) when f is nil, for every i in
// [0, n). With more than one worker the call allocates its pool once and
// one goroutine per worker beyond the first: the caller's goroutine is
// worker 0.
func forWorkers(workers, n int, f func(worker, i int), g func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if g != nil {
				g(i)
			} else {
				f(0, i)
			}
		}
		return
	}

	// Dynamic chunked distribution: workers claim contiguous index ranges
	// from an atomic cursor. Chunking amortizes the atomic op; claiming
	// dynamically (rather than striping statically) keeps the pool
	// load-balanced when per-index cost is skewed, which it is for CBG
	// locates (constraint counts vary per target). Which worker runs which
	// index never affects the result — see the package determinism contract.
	p := &pool{n: n, chunk: max(n/(workers*8), 1), f: f, g: g}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.spawned(w)
	}
	p.run(0)
	p.wg.Wait()
	if p.panicked {
		panic(p.panicv)
	}
}

// pool is one forWorkers call's shared state: the body, the chunk cursor,
// the spawned workers' WaitGroup and the first panic any worker raised.
type pool struct {
	n, chunk int
	f        func(worker, i int)
	g        func(i int)
	cursor   atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	panicv   any
}

func (p *pool) spawned(worker int) {
	defer p.wg.Done()
	p.run(worker)
}

// run claims chunks until the cursor passes n. A panic stops this worker
// and is kept, the first one only, for the caller to re-raise.
func (p *pool) run(worker int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if !p.panicked {
				p.panicked, p.panicv = true, r
			}
			p.mu.Unlock()
		}
	}()
	for {
		hi := int(p.cursor.Add(int64(p.chunk)))
		lo := hi - p.chunk
		if lo >= p.n {
			return
		}
		hi = min(hi, p.n)
		if p.g != nil {
			for i := lo; i < hi; i++ {
				p.g(i)
			}
		} else {
			for i := lo; i < hi; i++ {
				p.f(worker, i)
			}
		}
	}
}
