// Package depgraph analyzes the predicate dependency structure of a
// program: which predicates imply which (the paper's P => Q relation),
// the recursive cliques (strongly connected components of mutually
// recursive predicates), the partial order in which cliques follow one
// another, and stratification for the negation extension.
package depgraph

import (
	"fmt"
	"sort"

	"ldl/internal/lang"
)

// Edge records that the body predicate From is used to define the head
// predicate To (From => To in the paper's notation), through rule Rule.
type Edge struct {
	From, To string // predicate tags
	Rule     int    // index into Program.Rules
	Negated  bool
}

// Clique is a recursive clique: a maximal set of mutually recursive
// predicates, plus the rules whose heads are in the clique. Predicates
// that are not recursive at all form singleton entries with Recursive
// == false; truly recursive cliques have Recursive == true.
type Clique struct {
	ID        int
	Preds     []string // sorted predicate tags
	Rules     []int    // indexes into Program.Rules with head in clique
	Recursive bool     // some rule in the clique depends on the clique
	predSet   map[string]bool
}

// Contains reports whether tag is one of the clique's predicates.
func (c *Clique) Contains(tag string) bool { return c.predSet[tag] }

// Graph is the analyzed dependency structure of a program.
type Graph struct {
	prog    *lang.Program
	Edges   []Edge
	Cliques []*Clique      // in topological (follows) order: dependencies first
	ByPred  map[string]int // predicate tag -> clique index
	Strata  map[string]int // predicate tag -> stratum (0-based)
	adj     map[string][]string
}

// Analyze builds the dependency graph of prog. It returns an error only
// if the program is not stratifiable (a negative edge inside a clique).
func Analyze(prog *lang.Program) (*Graph, error) {
	g := &Graph{prog: prog, ByPred: map[string]int{}, adj: map[string][]string{}}
	nodes := prog.PredTags()
	nodeSet := map[string]bool{}
	for _, n := range nodes {
		nodeSet[n] = true
	}
	for ri, r := range prog.Rules {
		head := r.Head.Tag()
		for _, l := range r.Body {
			if lang.IsBuiltin(l.Pred) {
				continue
			}
			g.Edges = append(g.Edges, Edge{From: l.Tag(), To: head, Rule: ri, Negated: l.Neg})
			g.adj[l.Tag()] = append(g.adj[l.Tag()], head)
		}
	}
	g.computeSCCs(nodes)
	if err := g.stratify(nodes); err != nil {
		return nil, err
	}
	return g, nil
}

// computeSCCs runs Tarjan's algorithm and stores the cliques in reverse
// completion order, which for Tarjan is a reverse topological order of
// the condensation; we flip it so dependencies come first ("follows"
// order).
func (g *Graph) computeSCCs(nodes []string) {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation (a component is emitted only after everything it can
	// reach): comps[0] has no outgoing edges to later comps. Edges point
	// From(body) -> To(head), so "reachable" means "defined using".
	// Dependencies of a clique are the cliques it has incoming edges
	// from; we want dependencies first, which is the emitted order
	// reversed... Verify: for edge b -> h (b used by h), strongconnect
	// from b reaches h, so h's component completes before b's. Hence
	// comps order = [h's clique, b's clique, ...]; reversing puts b
	// (the dependency) first.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	for ci, comp := range comps {
		sort.Strings(comp)
		c := &Clique{ID: ci, Preds: comp, predSet: map[string]bool{}}
		for _, p := range comp {
			c.predSet[p] = true
			g.ByPred[p] = ci
		}
		g.Cliques = append(g.Cliques, c)
	}
	// Attach rules and detect genuine recursion: a clique is recursive
	// if some rule with head in the clique references a clique predicate
	// in its body (covers both self-recursion and mutual recursion).
	for ri, r := range g.prog.Rules {
		ci := g.ByPred[r.Head.Tag()]
		c := g.Cliques[ci]
		c.Rules = append(c.Rules, ri)
		for _, l := range r.Body {
			if !lang.IsBuiltin(l.Pred) && c.Contains(l.Tag()) {
				c.Recursive = true
			}
		}
	}
}

// stratify assigns strata so that a negated dependency strictly
// increases the stratum. A negative edge within one clique makes the
// program non-stratifiable.
func (g *Graph) stratify(nodes []string) error {
	g.Strata = map[string]int{}
	for _, e := range g.Edges {
		if e.Negated && g.ByPred[e.From] == g.ByPred[e.To] {
			return fmt.Errorf("depgraph: program is not stratifiable: %s negatively depends on %s inside a recursive clique", e.To, e.From)
		}
	}
	// Cliques are already topologically ordered (dependencies first), so
	// one pass suffices.
	strat := make([]int, len(g.Cliques))
	for _, e := range g.Edges {
		cf, ct := g.ByPred[e.From], g.ByPred[e.To]
		if cf == ct {
			continue
		}
		min := strat[cf]
		if e.Negated {
			min++
		}
		if strat[ct] < min {
			strat[ct] = min
		}
	}
	// Propagate along topological order to a fixpoint (edges may be
	// listed in any order relative to the topological order).
	changed := true
	for changed {
		changed = false
		for _, e := range g.Edges {
			cf, ct := g.ByPred[e.From], g.ByPred[e.To]
			if cf == ct {
				continue
			}
			min := strat[cf]
			if e.Negated {
				min++
			}
			if strat[ct] < min {
				strat[ct] = min
				changed = true
			}
		}
	}
	for _, n := range nodes {
		g.Strata[n] = strat[g.ByPred[n]]
	}
	return nil
}

// CliqueOf returns the clique containing the predicate tag, or nil if
// the tag is unknown (e.g. a base relation never mentioned in a rule).
func (g *Graph) CliqueOf(tag string) *Clique {
	ci, ok := g.ByPred[tag]
	if !ok {
		return nil
	}
	return g.Cliques[ci]
}

// IsRecursive reports whether tag belongs to a recursive clique.
func (g *Graph) IsRecursive(tag string) bool {
	c := g.CliqueOf(tag)
	return c != nil && c.Recursive
}

// TopoCliques returns the cliques with dependencies first; evaluating
// cliques in this order respects the follows order.
func (g *Graph) TopoCliques() []*Clique { return g.Cliques }
