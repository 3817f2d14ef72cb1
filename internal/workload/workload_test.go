package workload

import (
	"math/rand"
	"strings"
	"testing"

	"ldl/internal/parser"
)

func TestShapeString(t *testing.T) {
	if Chain.String() != "chain" || Star.String() != "star" || Cycle.String() != "cycle" {
		t.Error("shape names wrong")
	}
	if Shape(9).String() != "Shape(9)" {
		t.Error("unknown shape name")
	}
}

func TestRandomConjunctShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, shape := range []Shape{Chain, Star, Cycle} {
		for n := 2; n <= 6; n++ {
			c := RandomConjunct(r, n, shape)
			if len(c.Prog.Rules) != 1 {
				t.Fatalf("%v n=%d: rules = %d", shape, n, len(c.Prog.Rules))
			}
			body := c.Prog.Rules[0].Body
			if len(body) != n {
				t.Fatalf("%v: body = %d", shape, len(body))
			}
			for i := 0; i < n; i++ {
				if !c.Cat.Has(body[i].Tag()) {
					t.Errorf("%v: no stats for %s", shape, body[i].Tag())
				}
				s := c.Cat.Stats(body[i].Tag())
				if s.Card < 10 || s.Card > 100000 {
					t.Errorf("card out of range: %v", s.Card)
				}
				if s.Distinct[0] > s.Card+1 {
					t.Errorf("distinct exceeds card: %+v", s)
				}
			}
		}
	}
	// star shape shares X0 across all goals
	c := RandomConjunct(r, 4, Star)
	for _, l := range c.Prog.Rules[0].Body {
		if l.Args[0].String() != "X0" {
			t.Errorf("star goal %s does not share X0", l)
		}
	}
	// cycle closes back
	c2 := RandomConjunct(r, 4, Cycle)
	last := c2.Prog.Rules[0].Body[3]
	if last.Args[1].String() != "X0" {
		t.Errorf("cycle does not close: %s", last)
	}
}

func TestSameGen(t *testing.T) {
	src := SameGen(SameGenSpec{Depth: 3, Fanout: 2})
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	// 2^3 leaves; up edges = 8+4+2 = 14, dn same, flat 1, rules 2.
	if got := len(prog.Facts); got != 14*2+1 {
		t.Errorf("facts = %d", got)
	}
	if len(prog.Rules) != 2 {
		t.Errorf("rules = %d", len(prog.Rules))
	}
	if !strings.Contains(src, SameGenLeaf(SameGenSpec{Depth: 3, Fanout: 2}, 0)) {
		t.Error("leaf name not in facts")
	}
}

func TestTCGenerators(t *testing.T) {
	prog, _, err := parser.ParseProgram(TCChain(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 5 || len(prog.Rules) != 2 {
		t.Errorf("chain: %d facts %d rules", len(prog.Facts), len(prog.Rules))
	}
}

func TestLayered(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src, top := Layered(r, 3, 10, 2)
	if top != "p3" {
		t.Errorf("top = %q", top)
	}
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 { // p0..p3
		t.Errorf("rules = %d", len(prog.Rules))
	}
	if len(prog.Facts) != 20 {
		t.Errorf("facts = %d", len(prog.Facts))
	}
}
