package cost

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ldl/internal/adorn"
)

// SameResult reports how two costings differ, bit for bit, or "" when
// they are identical.
func SameResult(a, b ConjunctResult) string {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	switch {
	case a.Safe != b.Safe || a.Reason != b.Reason:
		return fmt.Sprintf("safe %v %q vs %v %q", a.Safe, a.Reason, b.Safe, b.Reason)
	case !same(float64(a.Total), float64(b.Total)) || !same(a.OutCard, b.OutCard):
		return fmt.Sprintf("total/out %v/%v vs %v/%v", a.Total, a.OutCard, b.Total, b.OutCard)
	case len(a.Steps) != len(b.Steps):
		return fmt.Sprintf("%d steps vs %d", len(a.Steps), len(b.Steps))
	}
	for i, s := range a.Steps {
		t := b.Steps[i]
		if s.Lit.String() != t.Lit.String() || s.Adorn != t.Adorn || s.Method != t.Method ||
			!same(s.OutCard, t.OutCard) || !same(float64(s.Cost), float64(t.Cost)) {
			return fmt.Sprintf("step %d: %+v vs %+v", i, s, t)
		}
	}
	return ""
}

// TestPricerMatchesOracle prices every ordering, and a random prefix of
// each, of generated bodies through the Pricer and through the
// map-based oracle: the costings must agree bit for bit.
func TestPricerMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%6
		rb := NewRandomBody(r, n, trial%5 == 4)
		inCard := []float64{1, 0.25, 37}[trial%3]
		p := rb.Model.NewPricer(rb.Body, rb.Bound, inCard, nil)
		// nil is identity order; a perm's prefix prices that prefix.
		for _, perm := range append(adorn.Permutations(n), nil) {
			for _, pp := range [][]int{perm, perm[:r.Intn(len(perm)+1)]} {
				want := rb.Model.ConjunctOracle(rb.Body, pp, rb.Bound, inCard, nil)
				if d := SameResult(p.Price(pp), want); d != "" {
					t.Fatalf("%v perm %v: %s", rb, pp, d)
				}
			}
		}
	}
}

// TestPricerExact: a negative or NaN cardinality turns the prefix bound
// off; ordinary catalogs keep it on.
func TestPricerExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rb := NewRandomBody(r, 3, false)
	if !rb.Model.NewPricer(rb.Body, rb.Bound, 1, nil).Exact() {
		t.Error("ordinary catalog not exact")
	}
	m := model()
	b := body(t, "e(X, Y), small(Y, Z)")
	bad := m.Cat.Stats("small/2")
	bad.Card = -1
	m.Cat.Set("small/2", bad)
	if m.NewPricer(b, nil, 1, nil).Exact() {
		t.Error("negative Card left the bound on")
	}
}
