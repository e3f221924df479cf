// Artifact hot-swap: the mechanism that lets geoserve publish a new
// GEODSET artifact under live traffic without dropping a request.
//
// The Server is the publisher. Its serving state is an immutable artifact
// snapshot behind an atomic pointer. A request captures the pointer once
// on entry and answers entirely from that snapshot, so a swap mid-request
// is invisible: in-flight requests finish on the old snapshot while new
// requests see the new one. Publishers serialize on a mutex (last writer
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
// the reader of the snapshot it captured (Reader2.TryPin/Unpin, see
// acquire), the swap drops the owner reference, and the last pin out
// actually closes. A swap under zero load closes the old reader
// immediately; under load it closes the moment the final straggler
// finishes.
package serve

import (
	"fmt"

	"geoloc/internal/dataset"
)

// Artifact is one published serving snapshot plus swap bookkeeping. All
// fields are immutable after publish; concurrent readers share it
// freely.
type Artifact struct {
	// R2 reads the artifact's image in place. Swapping it out closes it
	// via the reader's reference count once the last pinned request
	// finishes (TryPin/Unpin).
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

// Current returns the active artifact, or nil before the first Publish.
// Callers must capture it once per request and use that snapshot
// throughout, never re-read it mid-request.
func (s *Server) Current() *Artifact { return s.cur.Load() }

// generation returns the current swap generation (0 before the first
// Publish).
func (s *Server) generation() uint64 {
	if a := s.Current(); a != nil {
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
func (s *Server) Publish(ds *dataset.Dataset, source string) (*Artifact, error) {
	r2, err := dataset.NewReader2(ds.Encode())
	if err == nil {
		err = r2.All(func(dataset.Record) error { return nil })
	}
	if err != nil {
		s.swapFails.Inc()
		return nil, fmt.Errorf("publish rejected, still serving generation %d: %w", s.generation(), err)
	}
	return s.PublishReader(r2, source), nil
}

// PublishReader atomically makes r2 the active artifact and takes
// ownership of it — for callers that hold an image already, such as a
// fleet whose replicas share one. The swap drops the old reader's owner
// reference, so it closes as soon as the last pinned in-flight request
// releases it.
func (s *Server) PublishReader(r2 *dataset.Reader2, source string) *Artifact {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.gen++
	a := &Artifact{
		R2:      r2,
		Hdr:     r2.Header(),
		Records: r2.NumRecords(),
		Gen:     s.gen,
		Source:  source,
	}
	old := s.cur.Swap(a)
	s.swaps.Inc()
	if old != nil && old.R2 != a.R2 {
		old.R2.Close()
	}
	return a
}

// Reload opens the artifact file at path and publishes it; blocks are
// verified as requests first touch them. On any failure — unreadable
// file, bad magic, corrupt frame, wrong version — the active artifact is
// untouched (the rollback guarantee) and the swap_failures counter
// records the attempt.
func (s *Server) Reload(path string) (*Artifact, error) {
	r2, err := dataset.Open2(path)
	if err != nil {
		s.swapFails.Inc()
		return nil, fmt.Errorf("reload rejected, still serving generation %d: %w", s.generation(), err)
	}
	return s.PublishReader(r2, path), nil
}
