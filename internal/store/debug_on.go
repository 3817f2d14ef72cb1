//go:build ldldebug

package store

// Build with -tags ldldebug to verify, on every insert, the invariant
// the engine's sharing discipline rests on: only ground, interned terms
// enter a relation, and interning is stable (re-interning an admitted
// term yields the same ID). Relations store only IDs and hand out
// borrowed ID columns, and the terms they build on read are the
// canonical interned ones, precisely because interned terms are
// immutable; this mode catches any violation at the door instead of as
// a corrupted set far downstream.

import (
	"fmt"

	"ldl/internal/term"
)

// debugBorrowIDs clamps a borrowed ID column's capacity to its length
// (ColumnAt, ColumnSince), so a caller that appends through the live
// backing array — or indexes past its snapshot length after inserting
// into the same relation mid-iteration — panics here instead of
// silently corrupting the relation.
func debugBorrowIDs(ids []term.ID) []term.ID {
	return ids[:len(ids):len(ids)]
}

// debugCheckIDRow verifies an ID-row insert: the row has one non-zero
// ID per column and every ID round-trips through the intern table.
func debugCheckIDRow(r *Relation, ids []term.ID) {
	if len(ids) != r.Arity {
		panic(fmt.Sprintf("store[ldldebug]: %s: ID row of length %d in arity %d relation", r.Name, len(ids), r.Arity))
	}
	for i, id := range ids {
		if id == 0 {
			panic(fmt.Sprintf("store[ldldebug]: %s: zero term ID at column %d", r.Name, i))
		}
		if term.IDHash(id) != term.HashTerm(term.InternedTerm(id)) {
			panic(fmt.Sprintf("store[ldldebug]: %s: interned hash mismatch for ID %d at column %d", r.Name, id, i))
		}
	}
}

func debugCheckInsert(r *Relation, t Tuple, ids []term.ID) {
	for i, x := range t {
		if !term.Ground(x) {
			panic(fmt.Sprintf("store[ldldebug]: %s: non-ground term %s at column %d", r.Name, x, i))
		}
		id2, _, ok := term.TryIntern(x)
		if !ok || id2 != ids[i] {
			panic(fmt.Sprintf("store[ldldebug]: %s: unstable intern for %s at column %d: %d vs %d",
				r.Name, x, i, ids[i], id2))
		}
		if !term.Equal(term.InternedTerm(id2), x) {
			panic(fmt.Sprintf("store[ldldebug]: %s: interned term mismatch for %s at column %d", r.Name, x, i))
		}
	}
}

// debugCheckAbsent verifies AppendFrom's precondition: the row it
// appends without a dedup probe is not already in the relation.
func debugCheckAbsent(r *Relation, h uint64, ids []term.ID) {
	if r.findByIDs(h, ids) >= 0 {
		panic(fmt.Sprintf("store[ldldebug]: %s: probe-free append of a row already present", r.Name))
	}
}
