package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversEveryIndexOnce checks the core contract — each index runs
// exactly once — across worker counts and sizes, including n smaller than
// the worker count and the inline single-worker path.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 17, 1000} {
			hits := make([]int32, n)
			ForWorkers(workers, n, func(_, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForDeterministicResults runs an index-addressed computation at
// several worker counts and requires identical result slices.
func TestForDeterministicResults(t *testing.T) {
	const n = 512
	compute := func(workers int) []float64 {
		out := make([]float64, n)
		ForWorkers(workers, n, func(_, i int) {
			v := float64(i)
			for k := 0; k < 100; k++ {
				v = v*1.0000001 + float64(k)
			}
			out[i] = v
		})
		return out
	}
	base := compute(1)
	for _, workers := range []int{2, 4, 8} {
		got := compute(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestForWorkerIDsInRange checks worker ids stay within [0, workers).
func TestForWorkerIDsInRange(t *testing.T) {
	const workers, n = 4, 1000
	var bad atomic.Int32
	ForWorkers(workers, n, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d calls saw an out-of-range worker id", bad.Load())
	}
}

// TestForPanicPropagates checks a worker panic reaches the caller.
func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			ForWorkers(workers, 64, func(_, i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	ForWorkers(4, 0, func(_, _ int) { ran = true })
	ForWorkers(4, -5, func(_, _ int) { ran = true })
	if ran {
		t.Fatal("f ran for n <= 0")
	}
}

// TestForWorkersAllocs pins a pooled call's allocations: the pool's state
// and one goroutine per worker beyond the caller. AllocsPerRun runs at
// GOMAXPROCS 1, where For would take the inline path, so the worker count
// is passed explicitly.
func TestForWorkersAllocs(t *testing.T) {
	out := make([]int, 256)
	body := func(_, i int) { out[i] = i }
	if n := testing.AllocsPerRun(200, func() { ForWorkers(2, len(out), body) }); n > 4 {
		t.Fatalf("ForWorkers(2, …) makes %v allocations per call, want at most 4", n)
	}
	if n := testing.AllocsPerRun(200, func() { ForWorkers(1, len(out), body) }); n != 0 {
		t.Fatalf("ForWorkers(1, …) makes %v allocations per call, want 0", n)
	}
}

// TestLoopRuns holds NewLoop's loop to For's contract across worker counts
// and runs: every index once per Run, and a panic reaches the caller.
func TestLoopRuns(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		hits := make([]atomic.Int32, 37)
		loop := NewLoop(workers, len(hits), func(i int) { hits[i].Add(1) })
		for r := 1; r <= 3; r++ {
			loop.Run()
			for i := range hits {
				if got := hits[i].Load(); got != int32(r) {
					t.Fatalf("workers=%d run %d: index %d ran %d times", workers, r, i, got)
				}
			}
		}
		loop.Close()
	}
	loop := NewLoop(2, 8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	defer loop.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("a Loop body's panic did not reach the caller")
		}
	}()
	loop.Run()
}

// TestLoopAllocs pins NewLoop's cost: the loop and one goroutine per helper,
// once; a Run at 2 workers allocates nothing.
func TestLoopAllocs(t *testing.T) {
	out := make([]int, 256)
	body := func(i int) { out[i] = i }
	loop := NewLoop(2, len(out), body)
	defer loop.Close()
	if n := testing.AllocsPerRun(200, loop.Run); n != 0 {
		t.Fatalf("a NewLoop loop's Run at 2 workers makes %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { NewLoop(2, len(out), body).Close() }); n > 3 {
		t.Fatalf("NewLoop(2, …) makes %v allocations, want at most 3", n)
	}
}

// TestLoopCloseEndsHelpers checks that Close leaves no goroutine of the
// loop behind, whether the loop ran or not, at every worker count, and
// that a second Close is harmless.
func TestLoopCloseEndsHelpers(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, runs := range []int{0, 1, 5} {
			before := runtime.NumGoroutine()
			loop := NewLoop(workers, 100, func(int) {})
			for range runs {
				loop.Run()
			}
			loop.Close()
			loop.Close()
			// A helper reports done just before it returns, and its thread
			// may be descheduled in between; yield until it has gone, within
			// a limit that only bounds a test that would otherwise hang.
			left := runtime.NumGoroutine() - before
			for limit := time.Now().Add(10 * time.Second); left > 0 && time.Now().Before(limit); {
				runtime.Gosched()
				left = runtime.NumGoroutine() - before
			}
			if left > 0 {
				t.Fatalf("workers=%d runs=%d: %d goroutines outlive Close", workers, runs, left)
			}
		}
	}
}

// TestLoopPanicPropagates checks that a panic in any index reaches the
// caller of Run at 2 and 16 workers, at GOMAXPROCS 1 and above, and that
// the loop still runs every index on its next Run and closes cleanly.
func TestLoopPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{2, 16} {
			for _, bad := range []int{0, 31, 63} {
				var hits atomic.Int32
				armed := true
				loop := NewLoop(workers, 64, func(i int) {
					hits.Add(1)
					if armed && i == bad {
						panic("boom")
					}
				})
				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Errorf("GOMAXPROCS=%d workers=%d: Run recovered %v, want the body's panic", procs, workers, r)
						}
					}()
					loop.Run()
				}()
				armed = false
				hits.Store(0)
				loop.Run()
				if got := hits.Load(); got != 64 {
					t.Errorf("GOMAXPROCS=%d workers=%d: the Run after a panic ran %d indices, want 64", procs, workers, got)
				}
				loop.Close()
			}
		}
	}
}
