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
// [0, n). With more than one worker the call allocates its pool once;
// the caller's goroutine is worker 0.
func forWorkers(workers, n int, f func(worker, i int), g func(i int)) {
	if n <= 0 {
		return
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if g != nil {
				g(i)
			} else {
				f(0, i)
			}
		}
		return
	}
	newPool(workers, n, f, g).do()
}

// Loop is a For over a fixed n and body that a caller runs many times — a
// greedy cover runs every pick's row update as one Run. Its helpers start
// once, in NewLoop, and stay for every Run until Close.
//
// Each Run publishes a new generation. The helpers claim chunks from the
// pool's cursor, as For's workers do, and then add to the done count; the
// caller is worker 0 and, its own chunks claimed, waits for that count.
// Between Runs a helper waits for the next generation by yielding its
// thread (runtime.Gosched), never parking on a channel, futex or timer, so
// a Run starts in the time a yield takes rather than a wake-up's. Runs
// must not overlap, and Close must follow the last Run: until then the
// helpers keep yielding.
type Loop struct {
	pool
	gen  atomic.Int64 // bumped by every Run; closedGen once Close starts
	done atomic.Int64 // helpers finished with the current generation
}

// closedGen is the generation Close publishes: a helper that sees it exits.
const closedGen = -1

// NewLoop returns a loop whose Run calls f(i) for every i in [0, n) across
// min(workers, n) workers. It allocates the loop and starts one goroutine
// per worker beyond the caller; a Run allocates nothing. With one worker
// Run is the plain loop and Close does nothing.
func NewLoop(workers, n int, f func(i int)) *Loop {
	workers = max(min(workers, n), 1)
	l := &Loop{pool: pool{n: n, chunk: max(n/(workers*8), 1), workers: workers, g: f}}
	for w := 1; w < workers; w++ {
		go l.help(w)
	}
	return l
}

// Run runs the loop once and returns when every index has run. A panic in
// any worker is re-raised here once the helpers are done with this Run.
func (l *Loop) Run() {
	if l.workers == 1 {
		for i := 0; i < l.n; i++ {
			l.g(i)
		}
		return
	}
	if l.gen.Load() == closedGen {
		panic("par: Run after Close")
	}
	l.cursor.Store(0)
	l.done.Store(0)
	l.panicked, l.panicv = false, nil
	l.gen.Add(1)
	l.run(0)
	for l.done.Load() < int64(l.workers-1) {
		runtime.Gosched()
	}
	if l.panicked {
		panic(l.panicv)
	}
}

// Close ends every helper and returns once each has left its loop. It may
// be called more than once.
func (l *Loop) Close() {
	if l.workers == 1 || l.gen.Load() == closedGen {
		return
	}
	l.done.Store(0)
	l.gen.Store(closedGen)
	for l.done.Load() < int64(l.workers-1) {
		runtime.Gosched()
	}
}

// help is one helper's life: run each new generation's chunks, report
// done, and yield until the next — or until Close.
func (l *Loop) help(worker int) {
	var seen int64
	for {
		g := l.gen.Load()
		if g == seen {
			runtime.Gosched()
			continue
		}
		if g == closedGen {
			l.done.Add(1)
			return
		}
		seen = g
		l.run(worker)
		l.done.Add(1)
	}
}

// pool is a parallel loop's shared state: the body, the chunk cursor, the
// spawned workers' WaitGroup and the first panic any worker raised.
type pool struct {
	n, chunk, workers int
	f                 func(worker, i int)
	g                 func(i int)
	cursor            atomic.Int64
	wg                sync.WaitGroup
	mu                sync.Mutex
	panicked          bool
	panicv            any
}

func newPool(workers, n int, f func(worker, i int), g func(i int)) *pool {
	return &pool{n: n, chunk: max(n/(workers*8), 1), workers: workers, f: f, g: g}
}

// do runs the loop once. Dynamic chunked distribution: workers claim
// contiguous index ranges from an atomic cursor. Chunking amortizes the
// atomic op; claiming dynamically (rather than striping statically) keeps
// the pool load-balanced when per-index cost is skewed, which it is for
// CBG locates (constraint counts vary per target). Which worker runs which
// index never affects the result — see the package determinism contract.
func (p *pool) do() {
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		go p.spawned(w)
	}
	p.run(0)
	p.wg.Wait()
	if p.panicked {
		panic(p.panicv)
	}
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
