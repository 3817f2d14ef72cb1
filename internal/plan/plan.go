// Package plan implements the paper's processing trees (§4): the
// execution model whose leaves are base-relation scans and evaluable
// predicates, whose interior nodes are joins (AND), unions (OR) and
// contracted-clique fixpoints (CC), each labeled materialized (square)
// or pipelined (triangle) and carrying join and recursion method
// labels. The optimizer (internal/core) builds the tree it chose
// directly; this package renders it for Explain (Figure 4-1 style) and
// converts it into an executable program for the eval engine.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"ldl/internal/adorn"
	"ldl/internal/cost"
	"ldl/internal/lang"
)

// Mode is the materialize/pipeline label (square vs triangle node).
type Mode uint8

const (
	// Materialized subtrees are computed bottom-up, completely, with no
	// sideways information passing.
	Materialized Mode = iota
	// Pipelined subtrees compute only the tuples relevant to the
	// bindings flowing from their left siblings.
	Pipelined
)

func (m Mode) String() string {
	if m == Pipelined {
		return "pipe"
	}
	return "mat"
}

// Kind discriminates node variants.
type Kind uint8

const (
	KindScan Kind = iota
	KindBuiltin
	KindJoin
	KindUnion
	KindFix
)

func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindBuiltin:
		return "builtin"
	case KindJoin:
		return "join"
	case KindUnion:
		return "union"
	case KindFix:
		return "fix"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fix carries the contracted-clique (CC node) information: the clique's
// rules, the chosen adornment/SIPs, and the recursive method label.
type Fix struct {
	CliqueTags []string
	Rules      []lang.Rule
	RuleIdx    []int // global rule indexes parallel to Rules
	Adorned    *adorn.Adorned
	Method     cost.RecMethod
	// CPerm is the c-permutation: one body permutation per clique rule.
	CPerm [][]int
}

// Node is one processing-tree node: a single struct whose Kind
// discriminates the closed variant set.
type Node struct {
	Kind Kind
	Mode Mode

	// Lit is the scanned/evaluated literal (Scan, Builtin) or the
	// subquery occurrence this node answers (Union, Fix).
	Lit   lang.Literal
	Adorn lang.Adornment

	// Kids: Join children in execution order; Union children one per
	// rule (AND-subtrees).
	Kids []*Node

	// Join bookkeeping: Perm[i] gives the original body position of
	// Kids[i]; Methods[i] the join method label.
	Perm    []int
	Methods []cost.JoinMethod

	// Rule provenance for Union children / Join nodes implementing a
	// rule body.
	Rule    *lang.Rule
	RuleIdx int

	FixInfo *Fix

	EstCard float64
	EstCost cost.Cost
}

// Scan builds a base-relation leaf.
func Scan(l lang.Literal) *Node { return &Node{Kind: KindScan, Lit: l, Mode: Pipelined} }

// Builtin builds an evaluable-predicate leaf.
func Builtin(l lang.Literal) *Node { return &Node{Kind: KindBuiltin, Lit: l, Mode: Pipelined} }

// Join builds an AND node over kids (in execution order).
func Join(kids ...*Node) *Node {
	perm := make([]int, len(kids))
	for i := range perm {
		perm[i] = i
	}
	return &Node{Kind: KindJoin, Kids: kids, Perm: perm, Methods: make([]cost.JoinMethod, len(kids))}
}

// Union builds an OR node over kids.
func Union(l lang.Literal, kids ...*Node) *Node {
	return &Node{Kind: KindUnion, Lit: l, Kids: kids}
}

// Clone deep-copies the tree (estimates and labels included).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Kids = make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		c.Kids[i] = k.Clone()
	}
	c.Perm = append([]int(nil), n.Perm...)
	c.Methods = append([]cost.JoinMethod(nil), n.Methods...)
	if n.FixInfo != nil {
		fi := *n.FixInfo
		fi.CPerm = make([][]int, len(n.FixInfo.CPerm))
		for i, p := range n.FixInfo.CPerm {
			fi.CPerm[i] = append([]int(nil), p...)
		}
		c.FixInfo = &fi
	}
	return &c
}

// Walk visits the tree pre-order.
func (n *Node) Walk(visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, k := range n.Kids {
		k.Walk(visit)
	}
}

// Render draws the processing tree in the style of Figure 4-1: squares
// for materialized nodes, triangles for pipelined ones, CC labels for
// contracted cliques. The rendering is canonical: children of Union and
// Fix nodes — whose order carries no execution semantics, unlike a
// Join's — are rendered in sorted order, so the same logical plan
// always renders to the same text regardless of the construction order
// the (possibly concurrent) optimizer and scheduler produced. Cached-
// plan explains are therefore stable across runs and across serving
// processes.
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b, "", true)
	return b.String()
}

// orderedKids returns the children in rendering order: execution order
// for Join nodes (the permutation is the plan), canonical sorted order
// for Union and Fix nodes (their children are alternatives/side
// computations whose sequence is an artifact of search order).
func (n *Node) orderedKids() []*Node {
	if n.Kind != KindUnion && n.Kind != KindFix || len(n.Kids) < 2 {
		return n.Kids
	}
	kids := append([]*Node(nil), n.Kids...)
	key := make([]string, len(kids))
	for i, k := range kids {
		var kb strings.Builder
		k.render(&kb, "", true)
		key[i] = kb.String()
	}
	sort.SliceStable(kids, func(i, j int) bool { return key[i] < key[j] })
	return kids
}

func (n *Node) render(b *strings.Builder, prefix string, last bool) {
	connector := "├─ "
	childPrefix := prefix + "│  "
	if last {
		connector = "└─ "
		childPrefix = prefix + "   "
	}
	if prefix == "" {
		connector = ""
		childPrefix = "   "
	}
	marker := "□"
	if n.Mode == Pipelined {
		marker = "▷"
	}
	b.WriteString(prefix)
	b.WriteString(connector)
	b.WriteString(marker)
	b.WriteByte(' ')
	b.WriteString(n.describe())
	b.WriteByte('\n')
	kids := n.orderedKids()
	for i, k := range kids {
		k.render(b, childPrefix, i == len(kids)-1)
	}
}

func (n *Node) describe() string {
	var b strings.Builder
	switch n.Kind {
	case KindScan:
		fmt.Fprintf(&b, "scan %s", n.Lit)
	case KindBuiltin:
		fmt.Fprintf(&b, "eval %s", n.Lit)
	case KindJoin:
		fmt.Fprintf(&b, "join")
		if len(n.Methods) > 0 {
			names := make([]string, len(n.Methods))
			for i, m := range n.Methods {
				names[i] = m.String()
			}
			fmt.Fprintf(&b, " [%s]", strings.Join(names, ","))
		}
	case KindUnion:
		fmt.Fprintf(&b, "union %s", n.Lit.Tag())
	case KindFix:
		fmt.Fprintf(&b, "CC %s", n.Lit.Tag())
		if n.FixInfo != nil {
			fmt.Fprintf(&b, " method=%s adorn=%s", n.FixInfo.Method, n.Adorn.Pattern(n.Lit.Arity()))
		}
	}
	if n.EstCost != 0 {
		if n.EstCost.IsInfinite() {
			b.WriteString(" cost=∞")
		} else {
			fmt.Fprintf(&b, " cost=%.1f card=%.1f", float64(n.EstCost), n.EstCard)
		}
	}
	return b.String()
}
