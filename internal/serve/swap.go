// Artifact hot-swap: the mechanism that lets geoserve publish a new
// GEODSET artifact under live traffic without dropping a request.
//
// The serving state is an immutable artifact snapshot published through
// an atomic pointer. A request captures the pointer once on entry and
// answers entirely from that snapshot, so a swap mid-request is
// invisible: in-flight requests finish on the old snapshot while new
// requests see the new one. Swaps are serialized by a mutex (last writer
// wins would otherwise race the generation counter), and a reload that
// fails to decode leaves the old artifact serving — rollback is the
// absence of a publish.
//
// Every artifact is served the same way: a dataset.Reader2 over its
// GEODSET2 image (DESIGN.md §3.9, §3.10) — a memory mapping of the file
// for Reload, which is how a full-IPv4-scale artifact serves with
// O(blocks-touched) resident memory, and the encoded image on the heap
// for a dataset compiled in-process (Publish).
//
// A reader owns its image (for a file, a mapping to unmap), so a
// swapped-out reader is reference-counted: each in-flight request pins
// the snapshot it captured (Artifact.pin/release), the swap drops the
// owner reference, and the last pin out actually closes. A swap under
// zero load closes the old reader immediately; under load it closes the
// moment the final straggler finishes.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"geoloc/internal/dataset"
	"geoloc/internal/telemetry"
)

// Artifact is one published serving snapshot plus swap bookkeeping. All
// fields are immutable after publish; concurrent readers share it
// freely.
type Artifact struct {
	// R2 reads the artifact's image in place. Swapping it out closes it
	// via the reader's reference count once the last pinned request
	// finishes (see pin/release).
	R2 *dataset.Reader2
	// Hdr is the artifact's provenance header.
	Hdr dataset.Header
	// Records is the artifact's record count.
	Records int
	// Gen is the swap generation: 1 for the first published artifact,
	// incremented by every successful swap. Monotonic across the life of
	// the process; geobench asserts it bumps across a hot-swap.
	Gen uint64
	// Source says where the artifact came from (a file path, or
	// "compiled:<scale>" for datasets built in-process).
	Source string
}

// pin takes a reference on the snapshot's reader so a concurrent swap
// cannot close it mid-request. Reports false when the reader already
// closed (the caller re-reads Current and retries).
func (a *Artifact) pin() bool { return a.R2.TryPin() }

// release drops the reference pin took; the last release after a swap
// closes the retired reader.
func (a *Artifact) release() { a.R2.Unpin() }

// Swapper owns the atomic artifact pointer. The read side (Current) is a
// single atomic load; the write side (Publish, Reload) builds the new
// snapshot side-by-side with the old artifact still serving and
// publishes with one atomic store.
type Swapper struct {
	swaps     *telemetry.Counter
	swapFails *telemetry.Counter

	mu  sync.Mutex // serializes writers; readers never take it
	gen uint64     // guarded by mu
	cur atomic.Pointer[Artifact]
}

// NewSwapper returns an empty swapper (Current is nil until the first
// Publish).
func NewSwapper(reg *telemetry.Registry) *Swapper {
	return &Swapper{
		swaps:     reg.Counter("geoserve.swaps"),
		swapFails: reg.Counter("geoserve.swap_failures"),
	}
}

// Current returns the active artifact, or nil before the first Publish.
// Callers must capture it once per request and use that snapshot
// throughout, never re-read it mid-request.
func (sw *Swapper) Current() *Artifact { return sw.cur.Load() }

// Generation returns the current swap generation (0 before the first
// Publish).
func (sw *Swapper) Generation() uint64 {
	if a := sw.Current(); a != nil {
		return a.Gen
	}
	return 0
}

// Publish makes a dataset built in-process the active artifact: it is
// encoded into a GEODSET2 image on the heap and served through a reader
// over that image, like any file. Every block is verified before the
// store, so records no reader would accept (unsorted, duplicate prefix,
// out-of-range geometry) are refused here with the reader's named error
// — swap_failures counts it, the old artifact keeps serving — rather than
// on some request's first touch.
func (sw *Swapper) Publish(ds *dataset.Dataset, source string) (*Artifact, error) {
	r2, err := dataset.NewReader2(ds.Encode())
	if err == nil {
		err = r2.All(func(dataset.Record) error { return nil })
	}
	if err != nil {
		sw.swapFails.Inc()
		return nil, fmt.Errorf("publish rejected, still serving generation %d: %w", sw.Generation(), err)
	}
	return sw.PublishReader(r2, source), nil
}

// store publishes the snapshot and retires the one it replaces: the
// swap drops the old reader's owner reference, so it closes as soon as
// the last pinned in-flight request releases it.
func (sw *Swapper) store(a *Artifact) {
	old := sw.cur.Swap(a)
	sw.swaps.Inc()
	if old != nil && old.R2 != a.R2 {
		old.R2.Close()
	}
}

// PublishReader atomically makes r2 the active artifact and takes
// ownership of it.
func (sw *Swapper) PublishReader(r2 *dataset.Reader2, source string) *Artifact {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.gen++
	a := &Artifact{
		R2:      r2,
		Hdr:     r2.Header(),
		Records: r2.NumRecords(),
		Gen:     sw.gen,
		Source:  source,
	}
	sw.store(a)
	return a
}

// Reload opens the artifact file at path and publishes it; blocks are
// verified as requests first touch them. On any failure — unreadable
// file, bad magic, corrupt frame, wrong version — the active artifact is
// untouched (the rollback guarantee) and the swap_failures counter
// records the attempt.
func (sw *Swapper) Reload(path string) (*Artifact, error) {
	r2, err := dataset.Open2(path)
	if err != nil {
		sw.swapFails.Inc()
		return nil, fmt.Errorf("reload rejected, still serving generation %d: %w", sw.Generation(), err)
	}
	return sw.PublishReader(r2, path), nil
}
