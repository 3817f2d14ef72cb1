package store

// Epoch-delta access paths. The epoch discipline is insert-only and
// rows never move, so the state of a relation at any earlier moment is
// exactly a length: everything at row index >= that watermark was
// appended afterwards. These accessors expose that appended suffix —
// borrowed, like Tuples/ColumnAt — and materialize it as a standalone
// delta relation for the incremental fixpoint, which feeds deltas to
// the same join kernels that consume full relations.

import "ldl/internal/term"

// RowsSince returns the tuples appended at or after the watermark
// `from` (a row count captured earlier, e.g. a previous epoch's Len),
// read-only. A watermark beyond the current length yields nil. Inside
// the owned tail it is a borrowed view sharing the live backing array
// (under ldldebug the capacity is clamped so append-through panics);
// a suffix reaching into the part prefix is gathered from the part
// holding `from` onward into a new slice — O(suffix), never the
// whole-relation view.
func (r *Relation) RowsSince(from int) []Tuple {
	from = max(from, 0)
	if from >= r.Len() {
		return nil
	}
	if ti := from - r.partRows; ti >= 0 {
		return debugBorrow(r.tuples[ti:])
	}
	k := r.partIndex(from)
	out := r.parts[k].appendTuples(make([]Tuple, 0, r.Len()-from), from-r.partOff[k])
	for _, p := range r.parts[k+1:] {
		out = p.appendTuples(out, 0)
	}
	return append(out, r.tuples...)
}

// appendTuples appends the part's rows from local index lo on: from
// the materialized rows when the part has them, else built from the
// interned IDs for just those rows.
func (p *Part) appendTuples(dst []Tuple, lo int) []Tuple {
	if rp := p.rows.Load(); rp != nil {
		return append(dst, (*rp)[lo:]...)
	}
	for i := lo; i < p.n; i++ {
		t := make(Tuple, len(p.cols))
		for c := range p.cols {
			t[c] = term.InternedTerm(p.cols[c][i])
		}
		dst = append(dst, t)
	}
	return dst
}

// ColumnSince returns the suffix of column c appended at or after the
// watermark — the columnar twin of RowsSince, beside ColumnAt, with the
// same contract: read-only, borrowed inside the tail, gathered in
// O(suffix) when it reaches into the part prefix.
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

// DeltaSince materializes the appended suffix as an independent
// relation: the semi-naive seed delta for an epoch continuation. Cost
// is O(suffix) — interned IDs and row hashes are reused, never
// recomputed — and the result carries its own indexes/dedup state, so
// the kernels can scan and probe it like any relation. The suffix of a
// set is itself duplicate-free, so every row lands.
func (r *Relation) DeltaSince(from int) *Relation {
	from = max(from, 0)
	n := max(r.Len()-from, 0)
	d := NewRelationSized(r.Name+"+", r.Arity, n)
	if n == 0 {
		return d
	}
	rows := r.RowsSince(from)
	ids := make([]term.ID, r.Arity)
	for j, t := range rows {
		i := from + j
		for c := range ids {
			ids[c] = r.idAt(c, i)
		}
		d.appendRow(t, ids, r.hashAt(i))
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
