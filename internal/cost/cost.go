// Package cost implements the optimizer's cost model (§6): per-node
// cost and cardinality estimates that are monotonically increasing in
// operand size, with +Inf encoding unsafe executions. The paper treats
// the concrete formulas as a system-dependent black box; this
// implementation uses Selinger-style selectivity estimation (1/distinct
// for bound columns, 1/max-distinct for join columns) over a
// CPU+IO-unit cost, and documents every formula so experiments are
// interpretable.
package cost

import (
	"fmt"
	"math"

	"ldl/internal/lang"
	"ldl/internal/stats"
)

// Cost is an abstract work unit (think: page IOs plus a CPU term).
type Cost float64

// Infinite is the cost of an unsafe execution.
func Infinite() Cost { return Cost(math.Inf(1)) }

// IsInfinite reports whether c encodes an unsafe execution.
func (c Cost) IsInfinite() bool { return math.IsInf(float64(c), 1) }

// JoinMethod labels how one body literal is merged into the tuples
// flowing from its left siblings (the paper's EL label choices).
type JoinMethod uint8

const (
	// MethodNone marks builtins/negation steps.
	MethodNone JoinMethod = iota
	// IndexNL probes an index on the literal's bound columns once per
	// incoming tuple (the pipelined join).
	IndexNL
	// ScanNL scans the whole relation once per incoming tuple.
	ScanNL
	// HashJoin builds a hash table on the relation once and probes it
	// per incoming tuple; needs at least one bound column.
	HashJoin
)

func (m JoinMethod) String() string {
	switch m {
	case IndexNL:
		return "index-nl"
	case ScanNL:
		return "scan-nl"
	case HashJoin:
		return "hash"
	default:
		return "-"
	}
}

// RecMethod labels the fixpoint method of a contracted clique node.
type RecMethod uint8

const (
	RecNaive RecMethod = iota
	RecSemiNaive
	RecMagic
	RecCounting
	// RecSupMagic is the supplementary-magic variant: prefixes are
	// materialized once in sup predicates instead of being re-evaluated
	// by both the magic rules and the modified rule.
	RecSupMagic
)

func (m RecMethod) String() string {
	switch m {
	case RecNaive:
		return "naive"
	case RecSemiNaive:
		return "seminaive"
	case RecMagic:
		return "magic"
	case RecCounting:
		return "counting"
	case RecSupMagic:
		return "supmagic"
	}
	return fmt.Sprintf("RecMethod(%d)", uint8(m))
}

// AllRecMethods lists every recursive method the system implements.
var AllRecMethods = []RecMethod{RecNaive, RecSemiNaive, RecMagic, RecCounting, RecSupMagic}

// Model prices executions against a catalog.
type Model struct {
	Cat *stats.Catalog

	// TupleCPU is the cost of touching one tuple.
	TupleCPU float64
	// ProbeIO is the cost of one index probe.
	ProbeIO float64
	// ScanIO is the per-tuple cost of a sequential scan (cheaper than
	// random probes per tuple, dearer than pure CPU).
	ScanIO float64
	// BuildCPU is the per-tuple cost of building a hash table.
	BuildCPU float64
	// MagicOverhead multiplies the work of magic-restricted evaluation
	// to account for computing and joining the magic predicates.
	MagicOverhead float64
	// CountingFactor is counting's advantage over magic where it
	// applies (it stores level numbers instead of binding sets).
	CountingFactor float64
	// SupMagicFactor is supplementary magic's advantage over plain
	// magic (rule prefixes are evaluated once, not twice).
	SupMagicFactor float64
}

// NewModel returns a model with the default constants used throughout
// the experiments.
func NewModel(cat *stats.Catalog) *Model {
	return &Model{
		Cat:            cat,
		TupleCPU:       1,
		ProbeIO:        4,
		ScanIO:         0.5,
		BuildCPU:       2,
		MagicOverhead:  2,
		CountingFactor: 0.6,
		SupMagicFactor: 0.85,
	}
}

// StatsFn supplies statistics for a literal; the optimizer passes a
// closure that resolves derived predicates to their memoized estimates
// and base predicates to the catalog.
type StatsFn func(l lang.Literal) stats.RelStats

// BaseStats is the StatsFn that consults only the catalog.
func (m *Model) BaseStats(l lang.Literal) stats.RelStats { return m.Cat.Stats(l.Tag()) }

// Step records the costing of one literal in a conjunct ordering.
type Step struct {
	Lit     lang.Literal
	Adorn   lang.Adornment
	Method  JoinMethod
	OutCard float64
	Cost    Cost
}

// ConjunctResult is the costing of a whole conjunct under one
// permutation.
type ConjunctResult struct {
	Total   Cost
	OutCard float64
	Steps   []Step
	// Safe is false when some goal violated EC at its position; Total
	// is then Infinite.
	Safe   bool
	Reason string
}

// bestJoin picks the cheapest join method available for the step (the
// EL exchange is thereby resolved locally).
func (m *Model) bestJoin(inCard, relCard, mu float64, ad lang.Adornment) (JoinMethod, float64) {
	scan := inCard * (relCard*m.ScanIO + mu*m.TupleCPU)
	best, bestCost := ScanNL, scan
	if ad != lang.AllFree {
		idx := inCard * (m.ProbeIO + mu*m.TupleCPU)
		if idx < bestCost {
			best, bestCost = IndexNL, idx
		}
		hash := relCard*m.BuildCPU + inCard*(m.TupleCPU+mu*m.TupleCPU)
		if hash < bestCost {
			best, bestCost = HashJoin, hash
		}
	}
	return best, bestCost
}

// UnionCost prices merging k child results with the given cardinalities
// (duplicate elimination touches every tuple once).
func (m *Model) UnionCost(cards []float64) (Cost, float64) {
	var total, out float64
	for _, c := range cards {
		total += c * m.TupleCPU
		out += c
	}
	return Cost(total), out
}
