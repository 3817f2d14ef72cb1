package store

// Epoch-delta access paths. The epoch discipline is insert-only and
// rows never move, so the state of a relation at any earlier moment is
// exactly a length: everything at row index >= that watermark was
// appended afterwards. These accessors expose that appended suffix in
// ID space — borrowed, like ColumnAt — and copy it into a standalone
// delta relation for the incremental fixpoint, which feeds deltas to
// the same join kernels that consume full relations.

import "ldl/internal/term"

// ColumnSince returns the suffix of column c appended at or after the
// watermark (a row count captured earlier, e.g. a previous epoch's
// Len), read-only; a watermark at or beyond the current length yields
// nil. Inside the owned tail it is a borrowed view sharing the live
// backing array (under ldldebug the capacity is clamped so
// append-through panics); a suffix reaching into the part prefix is
// gathered from the part holding `from` onward into a new slice —
// O(suffix), never the whole-relation view.
func (r *Relation) ColumnSince(c, from int) []term.ID {
	from = max(from, 0)
	if c < 0 || c >= r.Arity || from >= r.Len() {
		return nil
	}
	if ti := from - r.partRows; ti >= 0 {
		return debugBorrowIDs(r.cols[c][ti:])
	}
	k := r.partIndex(from)
	out := append(make([]term.ID, 0, r.Len()-from), r.parts[k].cols[c][from-r.partOff[k]:]...)
	for _, p := range r.parts[k+1:] {
		out = append(out, p.cols[c]...)
	}
	return append(out, r.cols[c]...)
}

// DeltaSince copies the appended suffix into an independent relation:
// the semi-naive seed delta for an epoch continuation. Cost is
// O(suffix) — interned IDs and row hashes are copied, never recomputed
// — and the result carries its own indexes/dedup state, so the kernels
// can scan and probe it like any relation. The suffix of a set is
// itself duplicate-free, so every row lands.
func (r *Relation) DeltaSince(from int) *Relation {
	from = max(from, 0)
	n := max(r.Len()-from, 0)
	d := NewRelationSized(r.Name+"+", r.Arity, n)
	if n == 0 {
		return d
	}
	ids := make([]term.ID, r.Arity)
	for i := from; i < r.Len(); i++ {
		rows, local := r.rowAt(i)
		for c := range ids {
			ids[c] = rows.cols[c][local]
		}
		d.appendRow(ids, rows.hashes[local])
	}
	return d
}

// CloneOwned returns an independent writable copy of the relation for
// continuing a fixpoint from a prior epoch's derived relation without
// mutating the published original. See clone for what is carried over:
// the parts are shared by pointer and only the tail is copied, so on a
// frozen view the per-epoch clone incremental maintenance pays is O(1)
// in the view's size.
func (r *Relation) CloneOwned() *Relation { return r.clone() }
