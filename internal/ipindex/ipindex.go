// Package ipindex is a shim kept for one release because benchmark/ names
// it: an Index over one artifact's ascending /24 keys, searched by
// bisection. No request reads it; dataset.Reader2 answers every lookup.
package ipindex

import (
	"slices"

	"geoloc/internal/ipaddr"
)

// Index is an immutable set of /24 keys in ascending order. Safe for
// concurrent use.
type Index struct{ keys []ipaddr.Prefix24 }

// New wraps keys, which must be ascending and distinct, as an artifact's
// record prefixes are. The index keeps the slice.
func New(keys []ipaddr.Prefix24) *Index { return &Index{keys: keys} }

// Lookup returns the position of the key covering the address, found by
// bisection. When no key covers it, ok is false and i is where its /24
// would be inserted.
func (ix *Index) Lookup(a ipaddr.Addr) (i int, ok bool) {
	return slices.BinarySearch(ix.keys, ipaddr.Prefix24Of(a))
}

// LookupUncached is Lookup.
//
// Deprecated: the index has no cache to bypass. Kept for one release
// because benchmark/ names it.
func (ix *Index) LookupUncached(a ipaddr.Addr) (int, bool) { return ix.Lookup(a) }
