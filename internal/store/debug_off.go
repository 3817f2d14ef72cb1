//go:build !ldldebug

package store

import "ldl/internal/term"

// debugCheckInsert is compiled away outside the ldldebug build tag; the
// release insert path pays nothing for the invariant checks.
func debugCheckInsert(r *Relation, t Tuple, ids []term.ID) {}

// debugBorrowIDs is the identity in release builds; under ldldebug it
// cap-clamps borrowed ID columns so append-past-snapshot misuse panics.
func debugBorrowIDs(ids []term.ID) []term.ID { return ids }

// debugCheckIDRow is compiled away outside ldldebug.
func debugCheckIDRow(r *Relation, ids []term.ID) {}
