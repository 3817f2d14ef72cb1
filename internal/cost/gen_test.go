package cost

import (
	"fmt"
	"math"
	"math/rand"

	"ldl/internal/lang"
	"ldl/internal/stats"
	"ldl/internal/term"
)

// RandomBody is one generated conjunct for the differential tests:
// relational goals joined in a chain, star or cycle, mixed with
// builtins ("=" that binds, comparisons), negated goals, compound and
// constant arguments, repeated variables and head-bound variables,
// priced against a random catalog.
type RandomBody struct {
	Shape string
	Body  []lang.Literal
	Bound map[string]bool
	Model *Model
}

func (b RandomBody) String() string {
	return fmt.Sprintf("%s %v bound=%v", b.Shape, b.Body, b.Bound)
}

// NewRandomBody generates a body of n goals. With badStats the catalog
// carries a negative cardinality (as a hand-built catalog may) and a NaN one,
// which turn prefix pruning off.
func NewRandomBody(r *rand.Rand, n int, badStats bool) RandomBody {
	shapes := []string{"chain", "star", "cycle"}
	shape := shapes[r.Intn(len(shapes))]
	v := func(i int) term.Term { return term.Var{Name: fmt.Sprintf("X%d", i)} }
	// Relational goals carry the join graph; the rest test the pricer's
	// handling of everything else.
	nrel := 1 + r.Intn(n)
	var body []lang.Literal
	for i := 0; i < nrel; i++ {
		var a, b term.Term
		switch shape {
		case "chain":
			a, b = v(i), v(i+1)
		case "star":
			a, b = v(0), v(i+1)
		default:
			a, b = v(i), v((i+1)%nrel)
		}
		args := []term.Term{a, b}
		switch r.Intn(8) {
		case 0:
			args[r.Intn(2)] = term.Atom("c")
		case 1:
			args = append(args, term.Comp{Functor: "f", Args: []term.Term{v(r.Intn(nrel + 1)), term.Int(3)}})
		case 2:
			args = append(args, a) // repeated variable
		case 3:
			args[1] = term.Comp{Functor: ".", Args: []term.Term{b, v(nrel + 2)}}
		}
		body = append(body, lang.Literal{Pred: fmt.Sprintf("r%d", r.Intn(4)), Args: args})
	}
	for len(body) < n {
		x, y := v(r.Intn(nrel+1)), v(r.Intn(nrel+3))
		var l lang.Literal
		switch r.Intn(5) {
		case 0: // binds its left side once the right is bound
			l = lang.Literal{Pred: lang.OpEq, Args: []term.Term{v(nrel + 1 + r.Intn(3)), term.Comp{Functor: "+", Args: []term.Term{x, term.Int(1)}}}}
		case 1:
			l = lang.Literal{Pred: lang.OpEq, Args: []term.Term{x, y}}
		case 2:
			ops := []string{lang.OpLt, lang.OpGe, lang.OpNe}
			l = lang.Literal{Pred: ops[r.Intn(len(ops))], Args: []term.Term{x, term.Int(r.Intn(9))}}
		case 3:
			l = lang.Literal{Pred: lang.OpLe, Args: []term.Term{x, y}}
		default:
			l = lang.Literal{Pred: fmt.Sprintf("r%d", r.Intn(4)), Args: []term.Term{x, y}, Neg: true}
		}
		body = append(body, l)
	}
	r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })

	bound := map[string]bool{}
	for i := 0; i < nrel+3; i++ {
		if r.Intn(4) == 0 {
			bound[fmt.Sprintf("X%d", i)] = true
		}
	}
	bound["Unused"] = true

	cat := stats.NewCatalog()
	for p := 0; p < 4; p++ {
		for arity := 2; arity <= 3; arity++ {
			if r.Intn(5) == 0 {
				continue // served from Default
			}
			card := float64(1 + r.Intn(20000))
			d := make([]float64, r.Intn(arity+1))
			for i := range d {
				d[i] = float64(r.Intn(int(card) + 1)) // 0 falls back to Card
			}
			cat.Set(fmt.Sprintf("r%d/%d", p, arity), stats.RelStats{Card: card, Distinct: d})
		}
	}
	if badStats {
		cat.Set("r0/2", stats.RelStats{Card: -50, Distinct: []float64{3, 7}})
		cat.Set("r1/3", stats.RelStats{Card: math.NaN()})
	}
	return RandomBody{Shape: shape, Body: body, Bound: bound, Model: NewModel(cat)}
}
