package eval

// Slot layout: a program's relations addressed by number. A run
// resolves every relation a rule application reads or writes through
// a slot computed once per program, never through a tag string: the
// derived predicates (rule heads) take slots 0..nderived-1, the base
// predicates of the program take the rest. Within a clique each
// predicate also has a clique-local index (its position in the
// clique's sorted Preds), which addresses the clique's delta sets, so
// a fixpoint round finds a rule's delta occurrences and its head's
// collector without a map lookup.

import (
	"strconv"
	"strings"

	"ldl/internal/depgraph"
)

// layout is the slot assignment of one program under one dependency
// analysis. It is immutable once built and shared by every engine of a
// precompiled program.
type layout struct {
	tags     []string // per slot: the predicate tag
	arity    []int    // per slot
	nderived int      // slots below it are rule heads
	slotOf   map[string]int
	cliqueOf []int // per slot: index into Graph.Cliques
	localOf  []int // per slot: index within its clique's Preds
	// cliques holds, per Graph.Cliques index, the layout slot of each
	// clique-local index, and — for a precompiled program — the
	// clique's compiled rules.
	cliques []cliqueLayout
}

type cliqueLayout struct {
	slots []int
	rules []*compiledRule
}

// newLayout numbers the predicates of the dependency graph g: every
// predicate of a clique with rules (a derived one) first, then the
// base ones, each clique's in its sorted Preds order. The tags and
// their clique positions come from g, so building it makes no tag
// string.
func newLayout(g *depgraph.Graph) *layout {
	n := len(g.ByPred)
	l := &layout{
		tags:     make([]string, 0, n),
		arity:    make([]int, 0, n),
		slotOf:   make(map[string]int, n),
		cliqueOf: make([]int, 0, n),
		localOf:  make([]int, 0, n),
		cliques:  make([]cliqueLayout, len(g.Cliques)),
	}
	for _, derived := range [2]bool{true, false} {
		for ci, c := range g.Cliques {
			if (len(c.Rules) > 0) != derived {
				continue
			}
			l.cliques[ci].slots = make([]int, len(c.Preds))
			for k, tag := range c.Preds {
				s := len(l.tags)
				arity, _ := strconv.Atoi(tag[strings.LastIndexByte(tag, '/')+1:])
				l.tags = append(l.tags, tag)
				l.arity = append(l.arity, arity)
				l.slotOf[tag] = s
				l.cliqueOf = append(l.cliqueOf, ci)
				l.localOf = append(l.localOf, k)
				l.cliques[ci].slots[k] = s
			}
		}
		if derived {
			l.nderived = len(l.tags)
		}
	}
	return l
}

// annotate resolves a compiled rule's tags to slots: its head's slot
// and clique-local index, each scan and negation step's slot, and for
// each body literal the clique-local index of its predicate when it is
// a positive relational literal of the head's own clique (the
// occurrences a semi-naive round sources from a delta), -1 otherwise.
func (l *layout) annotate(cr *compiledRule) {
	cr.headSlot = l.slotOf[cr.headTag]
	cr.headLocal = l.localOf[cr.headSlot]
	ci := l.cliqueOf[cr.headSlot]
	cr.bodyLocal = make([]int, len(cr.scanForBody))
	for i := range cr.steps {
		st := &cr.steps[i]
		switch st.kind {
		case kScan:
			st.slot = l.slotOf[st.tag]
		case kNeg:
			st.slot = l.slotOf[st.negTag]
		}
	}
	for bi, si := range cr.scanForBody {
		cr.bodyLocal[bi] = -1
		if si < 0 {
			continue
		}
		if s := cr.steps[cr.scanStep[si]].slot; l.cliqueOf[s] == ci {
			cr.bodyLocal[bi] = l.localOf[s]
		}
	}
}
