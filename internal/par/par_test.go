package par

import (
	"sync/atomic"
	"testing"
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
// and calls: every index once per call, and a panic reaches the caller.
func TestLoopRuns(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		hits := make([]atomic.Int32, 37)
		run := NewLoop(workers, len(hits), func(i int) { hits[i].Add(1) })
		for r := 1; r <= 3; r++ {
			run()
			for i := range hits {
				if got := hits[i].Load(); got != int32(r) {
					t.Fatalf("workers=%d run %d: index %d ran %d times", workers, r, i, got)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Loop body's panic did not reach the caller")
		}
	}()
	NewLoop(2, 8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})()
}

// TestLoopAllocs pins NewLoop's cost: the pool, its spawn closure and the
// loop's func, once; a call at 2 workers allocates nothing.
func TestLoopAllocs(t *testing.T) {
	out := make([]int, 256)
	body := func(i int) { out[i] = i }
	if n := testing.AllocsPerRun(200, NewLoop(2, len(out), body)); n != 0 {
		t.Fatalf("a NewLoop loop at 2 workers makes %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { NewLoop(2, len(out), body) }); n > 3 {
		t.Fatalf("NewLoop(2, …) makes %v allocations, want at most 3", n)
	}
}
