// Package stats maintains the database statistics the optimizer's cost
// model consumes: relation cardinalities and per-column distinct-value
// counts, plus the standard selectivity formulas derived from them.
// Statistics can be gathered from an actual database or supplied
// synthetically (the random "states of the database" of the paper's
// §7.1 experiments).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"ldl/internal/store"
	"ldl/internal/term"
)

// RelStats describes one relation.
type RelStats struct {
	Card     float64   // number of tuples
	Distinct []float64 // distinct values per column; len == arity
	// Acyclic records whether the relation, viewed as a digraph over
	// its first two columns, has no cycles. The counting method is only
	// applicable over acyclic data (its level counter diverges on
	// cycles), so the optimizer consults this statistic. Gather
	// computes it exactly; synthetic catalogs default to false
	// (conservative: counting disabled).
	Acyclic bool
}

// DistinctAt returns the distinct count of column i, defaulting
// conservatively to the cardinality when unknown.
func (s RelStats) DistinctAt(i int) float64 {
	if i < len(s.Distinct) && s.Distinct[i] > 0 {
		return s.Distinct[i]
	}
	if s.Card > 1 {
		return s.Card
	}
	return 1
}

// Catalog maps predicate tags to statistics. Missing entries fall back
// to Default.
type Catalog struct {
	rels map[string]RelStats

	// Default is assumed for relations without recorded statistics.
	Default RelStats

	// RecursionDepth is the assumed number of fixpoint iterations used
	// when costing recursive cliques (the catalog's stand-in for data
	// diameter).
	RecursionDepth float64
}

// NewCatalog returns an empty catalog with sensible defaults.
func NewCatalog() *Catalog {
	return &Catalog{
		rels:           map[string]RelStats{},
		Default:        RelStats{Card: 1000},
		RecursionDepth: 10,
	}
}

// Set records statistics for tag.
func (c *Catalog) Set(tag string, s RelStats) { c.rels[tag] = s }

// Stats returns the statistics for tag, or the default.
func (c *Catalog) Stats(tag string) RelStats {
	if s, ok := c.rels[tag]; ok {
		return s
	}
	return c.Default
}

// Has reports whether the catalog has explicit statistics for tag.
func (c *Catalog) Has(tag string) bool {
	_, ok := c.rels[tag]
	return ok
}

// Tags returns the sorted tags with explicit statistics.
func (c *Catalog) Tags() []string {
	out := make([]string, 0, len(c.rels))
	for t := range c.rels {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Clone returns an independent copy of the catalog (its per-relation
// map is copied; RelStats values are immutable in practice).
func (c *Catalog) Clone() *Catalog {
	n := &Catalog{
		rels:           make(map[string]RelStats, len(c.rels)),
		Default:        c.Default,
		RecursionDepth: c.RecursionDepth,
	}
	for t, s := range c.rels {
		n.rels[t] = s
	}
	return n
}

// Gather computes exact statistics for every relation in db, including
// the acyclicity of each relation's first-two-column digraph.
func Gather(db *store.Database) *Catalog {
	c := NewCatalog()
	for _, tag := range db.Tags() {
		c.Set(tag, GatherOne(db.Relation(tag)))
	}
	return c
}

// Update derives the catalog for a new epoch from the previous epoch's
// catalog: relations in touched (plus relations the old catalog never
// saw) are re-gathered from the live store — cardinality and per-column
// distinct counts read from the relation's incrementally maintained
// exact counters — while untouched relations keep their previous
// statistics. touched maps each grown relation's tag to its length at
// the previous epoch (the insert-only watermark): everything past it is
// this batch's appended suffix, which is all the acyclicity recheck
// has to look at. A batch of b new edges costs O(b + region reachable
// from them), not O(relation), on relations the previous catalog
// already knew.
func Update(prev *Catalog, db *store.Database, touched map[string]int) *Catalog {
	if prev == nil {
		return Gather(db)
	}
	c := prev.Clone()
	for _, tag := range db.Tags() {
		from, grown := touched[tag]
		if !grown && prev.Has(tag) {
			continue
		}
		r := db.Relation(tag)
		if grown && prev.Has(tag) {
			c.Set(tag, UpdateOne(prev.Stats(tag), r, from))
		} else {
			c.Set(tag, GatherOne(r))
		}
	}
	return c
}

// UpdateOne derives a grown relation's statistics from its statistics
// at the watermark. Cardinality and distinct counts come from the
// relation's live exact counters, like GatherOne. Acyclicity is
// maintained incrementally: inserts never remove a cycle, so a cyclic
// relation stays cyclic; a previously acyclic one acquires a cycle iff
// some appended edge (u, v) closes a path v ⇝ u in the grown graph —
// checked by depth-first reachability from each new edge's target,
// probing the relation's first-column index, so the walk touches only
// the region reachable from the batch instead of rebuilding the whole
// adjacency map.
func UpdateOne(prev RelStats, r *store.Relation, from int) RelStats {
	s := RelStats{Card: float64(r.Len()), Distinct: make([]float64, r.Arity)}
	for i := 0; i < r.Arity; i++ {
		s.Distinct[i] = float64(r.Distinct(i))
	}
	s.Acyclic = prev.Acyclic && acyclicAfter(r, from)
	return s
}

// acyclicAfter reports whether a relation known to be acyclic at the
// watermark `from` is still acyclic: any cycle in the grown graph must
// pass through an appended edge (u, v), and such a cycle exists iff u
// is reachable from v.
func acyclicAfter(r *store.Relation, from int) bool {
	if r.Arity < 2 {
		return true
	}
	for i, n := max(from, 0), r.Len(); i < n; i++ {
		if reaches(r, r.IDAt(1, i), r.IDAt(0, i)) {
			return false
		}
	}
	return true
}

// reaches walks the relation's first-two-column digraph depth-first
// from src, following out-edges via the column-0 index, and reports
// whether target is reachable (src itself included). Nodes are
// interned term IDs, equal exactly when their terms are.
func reaches(r *store.Relation, src, target term.ID) bool {
	if src == target {
		return true
	}
	visited := map[term.ID]bool{}
	stack := []term.ID{src}
	probe := make([]term.ID, r.Arity)
	var out []int32
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n] {
			continue
		}
		visited[n] = true
		probe[0] = n
		out = r.AppendMatchesID(1, probe, out[:0])
		for _, j := range out {
			w := r.IDAt(1, int(j))
			if w == target {
				return true
			}
			stack = append(stack, w)
		}
	}
	return false
}

// GatherOne reads one relation's exact statistics from its live
// counters.
func GatherOne(r *store.Relation) RelStats {
	s := RelStats{Card: float64(r.Len()), Distinct: make([]float64, r.Arity)}
	for i := 0; i < r.Arity; i++ {
		s.Distinct[i] = float64(r.Distinct(i))
	}
	s.Acyclic = acyclic(r)
	return s
}

// acyclic reports whether the digraph over the relation's first two
// columns is cycle-free. Relations with fewer than two columns have no
// graph interpretation and count as acyclic.
func acyclic(r *store.Relation) bool {
	if r.Arity < 2 {
		return true
	}
	adj := map[term.ID][]term.ID{}
	for i := 0; i < r.Len(); i++ {
		a := r.IDAt(0, i)
		adj[a] = append(adj[a], r.IDAt(1, i))
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[term.ID]int{}
	var dfs func(v term.ID) bool // true when a cycle is found
	dfs = func(v term.ID) bool {
		color[v] = gray
		for _, w := range adj[v] {
			switch color[w] {
			case gray:
				return true
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := range adj {
		if color[v] == white && dfs(v) {
			return false
		}
	}
	return true
}

func (c *Catalog) String() string {
	var b strings.Builder
	for _, tag := range c.Tags() {
		s := c.rels[tag]
		fmt.Fprintf(&b, "%s: card=%.0f distinct=%v\n", tag, s.Card, s.Distinct)
	}
	return b.String()
}
