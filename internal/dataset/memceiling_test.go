package dataset

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"geoloc/internal/core"
	"geoloc/internal/world"
)

var (
	memCampOnce sync.Once
	memCamp     *core.Campaign
)

// memCampaign is a slimmer world than the shared fixture: the memory
// harness measures heap, not geolocation quality, and MeasureTarget's
// cost is linear in VP count — a few dozen VPs keep the quarter-million
// target sweeps to seconds.
func memCampaign(t *testing.T) *core.Campaign {
	t.Helper()
	memCampOnce.Do(func() {
		cfg := world.TinyConfig()
		cfg.Probes = 40
		cfg.AnchorsPerContinent = map[world.Continent]int{
			world.Asia: 4, world.Africa: 1, world.Oceania: 1,
			world.NorthAmerica: 5, world.Europe: 8, world.SouthAmerica: 1,
		}
		memCamp = core.NewCampaign(cfg)
	})
	return memCamp
}

// peakHeap runs fn with a HeapAlloc sampler and returns the peak heap
// observed above the pre-run baseline. The runtime's memory limit is
// pinned to baseline+limit for the duration, so the GC is obliged to
// hold a workload whose LIVE set fits the limit under it — what this
// harness measures is therefore live-set growth, not collector
// laziness. A workload whose live set genuinely exceeds the limit blows
// straight through (the limit is soft), which is exactly how the in-RAM
// foil demonstrates the ceiling is real.
func peakHeap(t *testing.T, limit uint64, fn func()) uint64 {
	t.Helper()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	prev := debug.SetMemoryLimit(int64(base + limit))
	defer debug.SetMemoryLimit(prev)

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var s runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				runtime.ReadMemStats(&s)
				for {
					cur := peak.Load()
					if s.HeapAlloc <= cur || peak.CompareAndSwap(cur, s.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	fn()
	// One synchronous sample so a workload shorter than the tick is
	// still observed at its end state.
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	close(stop)
	<-done
	p := peak.Load()
	if p <= base {
		return 0
	}
	return p - base
}

// TestStreamingMemoryCeiling is the regression test the tentpole is
// judged by: the external-merge compiler's peak heap is bounded by the
// window (plus merge fan-in), independent of campaign size, while the
// in-RAM path's peak necessarily scales with the record count. The
// sizes are chosen so the two regimes are separated by more than any
// GC-timing noise: the in-RAM foil allocates its record slice in one
// piece (≥ records × sizeof(Record) live at once), several times the
// streaming ceiling.
func TestStreamingMemoryCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts heap accounting")
	}
	if testing.Short() {
		t.Skip("multi-second memory harness")
	}
	c := memCampaign(t)
	const (
		window  = 4096
		smallN  = 30_000
		largeN  = 120_000
		ceiling = 4 << 20 // streaming budget: window buffers + merge readers + slack
	)

	stream := func(n int) uint64 {
		src, err := core.NewStreamCampaign(c, core.StreamSpec{Targets: n, VPsPerTarget: 8})
		if err != nil {
			t.Fatal(err)
		}
		hdr := StreamHeader(src)
		dir := t.TempDir()
		return peakHeap(t, ceiling, func() {
			if _, err := CompileExternal(filepath.Join(dir, "a.geodset"), src, hdr, Options{}, nil,
				StreamConfig{Window: window, SpillDir: filepath.Join(dir, "spill")}); err != nil {
				t.Fatal(err)
			}
		})
	}

	peakSmall := stream(smallN)
	peakLarge := stream(largeN)
	t.Logf("streaming peak heap: %d targets → %.1f MiB, %d targets → %.1f MiB",
		smallN, mib(peakSmall), largeN, mib(peakLarge))
	if peakLarge > ceiling {
		t.Fatalf("streaming peak %.1f MiB exceeds the %.1f MiB ceiling at %d targets",
			mib(peakLarge), mib(ceiling), largeN)
	}
	// N-independence: 4× the targets may cost merge fan-in (more spill
	// readers) but not a proportional heap. Allow 2 MiB of fan-in slack;
	// a proportional regression would add ~8 MiB here.
	if peakLarge > peakSmall+(2<<20) {
		t.Fatalf("streaming peak grew with campaign size: %.1f MiB → %.1f MiB",
			mib(peakSmall), mib(peakLarge))
	}

	// The in-RAM foil: same source, same record math, no spill. Its
	// record slice alone is live in one allocation, so its peak has a
	// hard floor the streaming path stays far under.
	src, err := core.NewStreamCampaign(c, core.StreamSpec{Targets: largeN, VPsPerTarget: 8})
	if err != nil {
		t.Fatal(err)
	}
	hdr := StreamHeader(src)
	floor := uint64(largeN) * uint64(unsafe.Sizeof(Record{}))
	var ds *Dataset
	peakRAM := peakHeap(t, 1<<30, func() {
		ds = CompileFromSource(src, hdr, Options{}, nil)
	})
	t.Logf("in-RAM peak heap: %d targets → %.1f MiB (floor %.1f MiB), %d records",
		largeN, mib(peakRAM), mib(floor), len(ds.Records))
	if peakRAM < floor {
		t.Fatalf("foil peak %.1f MiB under its own record-slice floor %.1f MiB — harness broken",
			mib(peakRAM), mib(floor))
	}
	if peakRAM < ceiling {
		t.Fatalf("foil peak %.1f MiB fits the streaming ceiling — the test separates nothing",
			mib(peakRAM))
	}
	if peakRAM < 2*peakLarge {
		t.Fatalf("in-RAM peak %.1f MiB not clearly above streaming peak %.1f MiB",
			mib(peakRAM), mib(peakLarge))
	}
}

func mib[T uint64 | int64 | int](v T) float64 { return float64(v) / (1 << 20) }
