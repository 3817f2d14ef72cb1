package store

// Exact per-column distinct counts, carried across epochs. The cost
// model prices every plan from them, so they must be exact at every
// epoch, and a commit must not pay O(relation) to keep them so. A
// relation's counts are plain integers that clone and Frozen copy; an
// insert decides whether its value is new to a column from two sets:
// the column's distinct set in each immutable part (built lazily once
// per part and shared by every epoch holding it, column blooms ruling
// most parts out first) and the owned tail's set of values no part
// holds. A value is new iff neither holds it. Freezing moves the tail
// into a part, so the frozen relation restarts with empty tail sets.

import "ldl/internal/term"

// idSet is a set of interned IDs.
type idSet = map[term.ID]struct{}

// distinctState is a relation's exact distinct count per column, with
// fresh[c] holding the owned tail's column-c values that no part holds
// (nil while there are none).
type distinctState struct {
	counts []int
	fresh  []idSet
}

// Distinct counts the distinct values in column i — exact, via
// interned IDs. The first call on a relation that carries no counts
// builds them (O(n)); from then on inserts keep them current and clone
// and Frozen carry them, so the optimizer's stats path pays O(1).
func (r *Relation) Distinct(i int) int {
	if i < 0 || i >= r.Arity {
		return 0
	}
	d := r.dist.Load()
	if d == nil {
		d = r.buildDistinct()
	}
	return d.counts[i]
}

// buildDistinct computes and atomically publishes the distinct state,
// under the same discipline as ensureIndex: safe under concurrent
// readers.
func (r *Relation) buildDistinct() *distinctState {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if d := r.dist.Load(); d != nil {
		return d
	}
	d := &distinctState{counts: make([]int, r.Arity), fresh: make([]idSet, r.Arity)}
	for c := range d.counts {
		held := make(idSet, r.partRows)
		for _, p := range r.parts {
			for _, id := range p.cols[c] {
				held[id] = struct{}{}
			}
		}
		fresh := make(idSet, len(r.cols[c]))
		for _, id := range r.cols[c] {
			if _, ok := held[id]; !ok {
				fresh[id] = struct{}{}
			}
		}
		d.counts[c] = len(held) + len(fresh)
		d.fresh[c] = fresh
	}
	r.dist.Store(d)
	return d
}

// noteDistinct folds a just-inserted row's IDs into the distinct
// counts, if the relation carries them. Writer-side (insert) only.
func (r *Relation) noteDistinct(ids []term.ID) {
	d := r.dist.Load()
	if d == nil {
		return
	}
	for c, id := range ids {
		if _, ok := d.fresh[c][id]; ok || r.partsHold(c, id) {
			continue
		}
		if d.fresh[c] == nil {
			d.fresh[c] = idSet{}
		}
		d.fresh[c][id] = struct{}{}
		d.counts[c]++
	}
}

// partsHold reports whether column c of some part holds id.
func (r *Relation) partsHold(c int, id term.ID) bool {
	if len(r.parts) == 0 {
		return false
	}
	h := term.IDHash(id)
	for _, p := range r.parts {
		if c < len(p.colBlooms) && !p.colBlooms[c].Empty() && !p.colBlooms[c].MayContain(h) {
			continue
		}
		if _, ok := p.distinctSet(c)[id]; ok {
			return true
		}
	}
	return false
}

// distinctSet returns the part's set of column-c values, building and
// publishing it on first use.
func (p *Part) distinctSet(c int) idSet {
	if m := p.distinct.Load(); m != nil && (*m)[c] != nil {
		return (*m)[c]
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	cur := make([]idSet, len(p.cols))
	if m := p.distinct.Load(); m != nil {
		if s := (*m)[c]; s != nil {
			return s
		}
		copy(cur, *m)
	}
	s := make(idSet, p.len())
	for _, id := range p.cols[c] {
		s[id] = struct{}{}
	}
	cur[c] = s
	p.distinct.Store(&cur)
	return s
}
