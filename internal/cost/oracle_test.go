package cost

import (
	"fmt"

	"ldl/internal/lang"
	"ldl/internal/stats"
	"ldl/internal/term"
)

// ConjunctOracle is the map-based, whole-ordering Conjunct the Pricer
// replaced, kept as the differential oracle: Pricer.Price and every
// search built on Step must reproduce its results bit for bit.
func (m *Model) ConjunctOracle(body []lang.Literal, perm []int, boundVars map[string]bool, inCard float64, sf StatsFn) ConjunctResult {
	if sf == nil {
		sf = m.BaseStats
	}
	bound := map[string]bool{}
	for v := range boundVars {
		bound[v] = true
	}
	if perm == nil {
		perm = make([]int, len(body))
		for i := range perm {
			perm[i] = i
		}
	}
	res := ConjunctResult{Safe: true, OutCard: inCard}
	card := inCard
	if card < 1 {
		card = 1
	}
	// varDistinct tracks, for each bound variable, the distinct-value
	// count of the column that bound it, so join selectivity can use the
	// classic 1/max(d_left, d_right) symmetric formula.
	varDistinct := map[string]float64{}
	var total float64
	for _, bi := range perm {
		l := body[bi]
		ad := lang.AdornLiteral(l, bound)
		st := Step{Lit: l, Adorn: ad}
		switch {
		case lang.IsBuiltin(l.Pred):
			if !lang.BuiltinEC(l, bound) {
				res.Safe = false
				res.Reason = fmt.Sprintf("goal %s not effectively computable at its position", l)
				res.Total = Infinite()
				return res
			}
			total += card * m.TupleCPU
			if l.Pred == lang.OpEq && len(lang.BuiltinBinds(l, bound)) > 0 {
				// computes a value: one output per input
				for _, v := range lang.BuiltinBinds(l, bound) {
					bound[v] = true
				}
			} else {
				card *= lang.BuiltinSelectivity(l.Pred)
			}
		case l.Neg:
			for _, v := range l.Vars(nil) {
				if !bound[v.Name] {
					res.Safe = false
					res.Reason = fmt.Sprintf("negated goal %s has unbound variable %s", l, v.Name)
					res.Total = Infinite()
					return res
				}
			}
			total += card * m.ProbeIO
			card *= 0.5
		default:
			s := sf(l)
			mu := oracleMatches(l, ad, s, varDistinct)
			method, stepCost := m.bestJoin(card, s.Card, mu, ad)
			st.Method = method
			total += stepCost
			card *= mu
			l.VarSet(bound)
			for i, arg := range l.Args {
				if v, ok := arg.(term.Var); ok {
					d := s.DistinctAt(i)
					if prev, seen := varDistinct[v.Name]; !seen || d > prev {
						varDistinct[v.Name] = d
					}
				}
			}
		}
		if card < 0.001 {
			card = 0.001
		}
		st.OutCard = card
		st.Cost = Cost(total)
		res.Steps = append(res.Steps, st)
	}
	res.Total = Cost(total)
	res.OutCard = card
	return res
}

// matchesPerBinding estimates how many tuples of the literal's relation
// match one incoming binding: card restricted per bound column by the
// symmetric join selectivity 1/max(d_binder, d_column) (falling back to
// 1/d_column for constants and head bindings), and by repeated
// variables within the literal.
func oracleMatches(l lang.Literal, ad lang.Adornment, s stats.RelStats, varDistinct map[string]float64) float64 {
	mu := s.Card
	seen := map[string]int{}
	for i, arg := range l.Args {
		if ad.Bound(i) {
			d := s.DistinctAt(i)
			if v, ok := arg.(term.Var); ok {
				if db, ok := varDistinct[v.Name]; ok && db > d {
					d = db
				}
			}
			mu *= 1 / d
			continue
		}
		// A free variable repeated across free columns correlates them.
		if v, ok := arg.(term.Var); ok {
			if prev, dup := seen[v.Name]; dup {
				d := s.DistinctAt(i)
				if dp := s.DistinctAt(prev); dp > d {
					d = dp
				}
				mu *= 1 / d
			} else {
				seen[v.Name] = i
			}
		}
	}
	if mu < 0.001 {
		mu = 0.001
	}
	return mu
}
