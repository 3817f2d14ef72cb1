package store

// Block (vectorized) access paths. The relation stores its interned
// term IDs column-major (one dense []term.ID per column), so a
// block-at-a-time executor can read whole columns, gather candidate
// rows, probe indexes, and insert deduplicated rows while staying in
// ID space — no term is built on this path. Everything here obeys the
// package concurrency contract: the read-side accessors (ColumnAt,
// IDAt, AppendMatchesID, ContainsIDs) are safe under
// concurrent readers, the insert-side one (InsertRows) is a writer API.

import "ldl/internal/term"

// ColumnAt returns column c as a borrowed slice of interned term IDs,
// row-indexed: ColumnAt(c)[i] is the ID of TupleAt(i)[c]. The slice
// shares its backing array with the live relation — callers must not
// mutate it, and must capture the length they need before inserting
// into the same relation (append may extend the array in place;
// existing elements never move). Under ldldebug the capacity is
// clamped so append-through or past-snapshot access panics.
func (r *Relation) ColumnAt(c int) []term.ID { return debugBorrowIDs(r.allColView(c)) }

// IDAt returns the interned ID of column c at row i without building
// the dense combined view ColumnAt serves from: O(1) on the owned
// tail, O(parts) on the shared prefix. It is the access path for
// callers that touch a few rows of a large parts-backed relation.
func (r *Relation) IDAt(c, i int) term.ID {
	rows, local := r.rowAt(i)
	return rows.cols[c][local]
}

// idRowHash folds a full ID row into the same row hash insert computes
// from terms: IDHash returns the structural hash TryIntern recorded,
// so ID-space and term-space probes land in the same dedup clusters.
func idRowHash(ids []term.ID) uint64 {
	h := hashSeed
	for _, id := range ids {
		h = combineHash(h, term.IDHash(id))
	}
	return h
}

// IDRowHash exposes the row-hash fold to the segment tier, which must
// recompute part hashes from re-interned IDs at open with exactly the
// values insert would have produced.
func IDRowHash(ids []term.ID) uint64 { return idRowHash(ids) }

// maskedIDHash hashes the projection of an ID row onto cols: the key
// of the column indexes.
func maskedIDHash(ids []term.ID, cols uint32) uint64 {
	h := hashSeed
	for i, id := range ids {
		if cols&(1<<uint(i)) != 0 {
			h = combineHash(h, term.IDHash(id))
		}
	}
	return h
}

// AppendMatchesID appends to dst the row indexes whose projection on
// cols matches the interned-ID probe row, fully verified (not just
// hash-matched), and returns the extended slice. cols must be non-zero
// and every masked probe position must hold a non-zero ID. Passing a
// reused buffer as dst keeps steady-state probes allocation-free.
//
// Borrow lifetime: the returned slice aliases dst's backing array (the
// caller owns it; the relation keeps no reference), and the row
// indexes it holds are stable forever — relations only grow and rows
// never move — so a match set may be consumed across later inserts,
// including inserts into this same relation. The matches are collected
// before the caller sees any of them, so insert-while-consuming never
// observes a partially built result. What a reused buffer must NOT do
// is survive into a second AppendMatchesID call while the first result
// is still being read: the second call overwrites the shared backing
// array.
func (r *Relation) AppendMatchesID(cols uint32, probe []term.ID, dst []int32) []int32 {
	if r.Len() == 0 {
		return dst
	}
	return r.appendMatchesIDs(cols, probe, dst)
}

// ContainsIDs reports whether the relation holds the tuple given as a
// full interned-ID row.
func (r *Relation) ContainsIDs(ids []term.ID) bool {
	if len(ids) != r.Arity || r.Len() == 0 {
		return false
	}
	return r.findByIDs(idRowHash(ids), ids) >= 0
}

// InsertRows bulk-inserts n rows given column-major (cols[c][i] is
// column c of row i; only the first Arity columns are read), skipping
// duplicates, and calls onNew with the relation row index of each row
// that was actually added — immediately after the row lands, so
// TupleAt(idx) is valid inside the callback. A non-nil error from
// onNew stops the batch; rows before the failure stay inserted and the
// error is returned alongside the added count. This is the block
// executor's head-emission primitive. Writer-side API.
func (r *Relation) InsertRows(cols [][]term.ID, n int, onNew func(idx int) error) (added int, err error) {
	row := r.scratch[:0]
	for i := 0; i < n; i++ {
		row = row[:0]
		for c := 0; c < r.Arity; c++ {
			row = append(row, cols[c][i])
		}
		debugCheckIDRow(r, row)
		h := idRowHash(row)
		if r.findByIDs(h, row) >= 0 {
			continue
		}
		// appendRow reuses r.scratch's backing array only through row,
		// which appendRow copies column-wise before returning.
		r.appendRow(row, h)
		added++
		if onNew != nil {
			if err := onNew(r.Len() - 1); err != nil {
				r.scratch = row[:0]
				return added, err
			}
		}
	}
	r.scratch = row[:0]
	return added, nil
}
