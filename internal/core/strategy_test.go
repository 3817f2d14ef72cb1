package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldl/internal/cost"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/stats"
	"ldl/internal/workload"
)

func testModel() *cost.Model {
	cat := stats.NewCatalog()
	cat.Set("tiny/2", stats.RelStats{Card: 5, Distinct: []float64{5, 5}})
	cat.Set("mid/2", stats.RelStats{Card: 500, Distinct: []float64{100, 100}})
	cat.Set("huge/2", stats.RelStats{Card: 50000, Distinct: []float64{500, 500}})
	return cost.NewModel(cat)
}

func bodyOf(t *testing.T, src string) []lang.Literal {
	t.Helper()
	prog, _, err := parser.ParseProgram("h(X) <- " + src + ".")
	if err != nil {
		t.Fatal(err)
	}
	return prog.Rules[0].Body
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{Exhaustive{}, DP{}, KBZ{}, Anneal{}} {
		if s.Name() == "" {
			t.Error("empty strategy name")
		}
	}
}

func TestExhaustiveOrdersTinyFirst(t *testing.T) {
	m := testModel()
	b := bodyOf(t, "huge(Y, Z), tiny(X, Y)")
	perm, res := Exhaustive{}.Order(m, b, nil, 1, nil)
	if !res.Safe {
		t.Fatal(res.Reason)
	}
	if perm[0] != 1 {
		t.Errorf("perm = %v, want tiny (index 1) first", perm)
	}
}

func TestExhaustiveFallsBackToDP(t *testing.T) {
	m := testModel()
	r := rand.New(rand.NewSource(1))
	c := workload.RandomConjunct(r, 9, workload.Chain)
	mm := cost.NewModel(c.Cat)
	// FallbackAt 4 forces the DP path; results must equal plain DP.
	pe, re := Exhaustive{FallbackAt: 4}.Order(mm, c.Prog.Rules[0].Body, nil, 1, nil)
	pd, rd := DP{}.Order(mm, c.Prog.Rules[0].Body, nil, 1, nil)
	if re.Total != rd.Total {
		t.Errorf("fallback cost %v != dp cost %v", re.Total, rd.Total)
	}
	if len(pe) != len(pd) {
		t.Errorf("perm lengths differ: %v vs %v", pe, pd)
	}
	_ = m
}

func TestDPEmptyAndSingleton(t *testing.T) {
	m := testModel()
	perm, res := DP{}.Order(m, nil, nil, 1, nil)
	if perm != nil || !res.Safe {
		t.Errorf("empty body: %v %v", perm, res)
	}
	b := bodyOf(t, "tiny(X, Y)")
	perm, res = DP{}.Order(m, b, nil, 1, nil)
	if len(perm) != 1 || !res.Safe {
		t.Errorf("singleton: %v %v", perm, res)
	}
}

func TestDPUnsafeBodyReported(t *testing.T) {
	m := testModel()
	// No ordering makes Z > W computable.
	b := bodyOf(t, "tiny(X, Y), Z > W")
	_, res := DP{}.Order(m, b, nil, 1, nil)
	if res.Safe {
		t.Error("uncomputable conjunct reported safe")
	}
	_, res2 := Exhaustive{}.Order(m, b, nil, 1, nil)
	if res2.Safe {
		t.Error("exhaustive: uncomputable conjunct reported safe")
	}
	_, res3 := KBZ{}.Order(m, b, nil, 1, nil)
	if res3.Safe {
		t.Error("kbz: uncomputable conjunct reported safe")
	}
	_, res4 := Anneal{Seed: 1, Steps: 50}.Order(m, b, nil, 1, nil)
	if res4.Safe {
		t.Error("anneal: uncomputable conjunct reported safe")
	}
}

func TestDPFindsSafeOrderWhenBuiltinsNeedReordering(t *testing.T) {
	m := testModel()
	b := bodyOf(t, "Y > 2, tiny(X, Y)")
	perm, res := DP{}.Order(m, b, nil, 1, nil)
	if !res.Safe {
		t.Fatalf("reorderable conjunct unsafe: %s", res.Reason)
	}
	if perm[0] != 1 {
		t.Errorf("perm = %v, want relation first", perm)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c := workload.RandomConjunct(r, 7, workload.Chain)
	m := cost.NewModel(c.Cat)
	p1, r1 := Anneal{Seed: 42, Steps: 100}.Order(m, c.Prog.Rules[0].Body, nil, 1, nil)
	p2, r2 := Anneal{Seed: 42, Steps: 100}.Order(m, c.Prog.Rules[0].Body, nil, 1, nil)
	if r1.Total != r2.Total {
		t.Errorf("same seed different costs: %v vs %v", r1.Total, r2.Total)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("same seed different perms: %v vs %v", p1, p2)
		}
	}
}

func TestAnnealNeverWorseThanGreedyStart(t *testing.T) {
	// Property: annealing returns the best state it visited, which
	// includes its greedy initial permutation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := workload.RandomConjunct(r, 6, workload.Cycle)
		m := cost.NewModel(c.Cat)
		body := c.Prog.Rules[0].Body
		init := initialPerm(m.NewPricer(body, nil, 1, nil), len(body))
		initRes := m.Conjunct(c.Prog.Rules[0].Body, init, nil, 1, nil)
		_, got := Anneal{Seed: seed, Steps: 200}.Order(m, c.Prog.Rules[0].Body, nil, 1, nil)
		return got.Total <= initRes.Total || !initRes.Safe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickStrategiesNeverBeatExhaustive(t *testing.T) {
	// Property: no heuristic returns a cheaper cost than exhaustive
	// (exhaustive is the oracle), and all return valid permutations.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := workload.Shape(r.Intn(3))
		c := workload.RandomConjunct(r, 4+r.Intn(3), shape)
		m := cost.NewModel(c.Cat)
		body := c.Prog.Rules[0].Body
		_, best := Exhaustive{}.Order(m, body, nil, 1, nil)
		for _, s := range []Strategy{DP{}, KBZ{}, Anneal{Seed: seed, Steps: 150}} {
			perm, res := s.Order(m, body, nil, 1, nil)
			if res.Total < best.Total*0.999 {
				return false // impossible: heuristic beat the oracle
			}
			seen := map[int]bool{}
			for _, p := range perm {
				if p < 0 || p >= len(body) || seen[p] {
					return false
				}
				seen[p] = true
			}
			if len(perm) != len(body) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKBZBoundQueryStartsAtBinding(t *testing.T) {
	// chain r0(X0,X1), r1(X1,X2), r2(X2,X3) with X0 bound: KBZ should
	// begin at r0 where the binding gives selectivity.
	cat := stats.NewCatalog()
	for _, tag := range []string{"r0/2", "r1/2", "r2/2"} {
		cat.Set(tag, stats.RelStats{Card: 1000, Distinct: []float64{1000, 1000}})
	}
	m := cost.NewModel(cat)
	prog, _, err := parser.ParseProgram(`q(X0, X3) <- r0(X0, X1), r1(X1, X2), r2(X2, X3).`)
	if err != nil {
		t.Fatal(err)
	}
	perm, res := KBZ{}.Order(m, prog.Rules[0].Body, map[string]bool{"X0": true}, 1, nil)
	if !res.Safe {
		t.Fatal(res.Reason)
	}
	if perm[0] != 0 {
		t.Errorf("perm = %v, want r0 first under X0 binding", perm)
	}
}

func TestKBZPureBuiltinBody(t *testing.T) {
	m := testModel()
	b := bodyOf(t, "X = 1, Y = X + 1")
	perm, res := KBZ{}.Order(m, b, nil, 1, nil)
	if !res.Safe || len(perm) != 2 {
		t.Errorf("builtin-only body: %v %v", perm, res)
	}
}

func TestKBZDisconnectedComponents(t *testing.T) {
	// Cross product: two unconnected chains; the cheaper component
	// should come first.
	cat := stats.NewCatalog()
	cat.Set("a/2", stats.RelStats{Card: 10, Distinct: []float64{10, 10}})
	cat.Set("b/2", stats.RelStats{Card: 100000, Distinct: []float64{1000, 1000}})
	m := cost.NewModel(cat)
	prog, _, err := parser.ParseProgram(`q(X, U) <- b(U, V), a(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	perm, res := KBZ{}.Order(m, prog.Rules[0].Body, nil, 1, nil)
	if !res.Safe {
		t.Fatal(res.Reason)
	}
	if perm[0] != 1 {
		t.Errorf("perm = %v, want small component first", perm)
	}
}

func TestKBZModuleAlgebra(t *testing.T) {
	a := kbzModule{seq: []int{0}, T: 2, C: 4}
	b := kbzModule{seq: []int{1}, T: 3, C: 6}
	ab := mergeModules(a, b)
	if ab.T != 6 || ab.C != 4+2*6 {
		t.Errorf("merge = %+v", ab)
	}
	if len(ab.seq) != 2 || ab.seq[0] != 0 {
		t.Errorf("merge seq = %v", ab.seq)
	}
	if r := (kbzModule{T: 3, C: 4}).rank(); r != 0.5 {
		t.Errorf("rank = %v", r)
	}
	if r := (kbzModule{T: 3, C: 0}).rank(); r != 0 {
		t.Errorf("zero-cost rank = %v", r)
	}
}

func TestKBZNormalizeMergesOutOfOrder(t *testing.T) {
	// head rank 1.0, next rank 0.1: must merge.
	chain := []kbzModule{
		{seq: []int{0}, T: 5, C: 4},   // rank 1.0
		{seq: []int{1}, T: 1.4, C: 4}, // rank 0.1
		{seq: []int{2}, T: 9, C: 4},   // rank 2.0
	}
	out := normalize(chain)
	if len(out) != 2 {
		t.Fatalf("normalize = %+v", out)
	}
	if len(out[0].seq) != 2 || out[0].seq[1] != 1 {
		t.Errorf("merged module seq = %v", out[0].seq)
	}
	// ranks ascending afterwards
	if out[0].rank() > out[1].rank() {
		t.Errorf("ranks not ascending: %v %v", out[0].rank(), out[1].rank())
	}
}

func TestMergeByRank(t *testing.T) {
	c1 := []kbzModule{{seq: []int{0}, T: 2, C: 1}, {seq: []int{1}, T: 9, C: 1}}
	c2 := []kbzModule{{seq: []int{2}, T: 3, C: 1}}
	out := mergeByRank([][]kbzModule{c1, c2})
	if len(out) != 3 || out[0].seq[0] != 0 || out[1].seq[0] != 2 || out[2].seq[0] != 1 {
		t.Errorf("merge order = %+v", out)
	}
	if got := mergeByRank(nil); len(got) != 0 {
		t.Errorf("empty merge = %v", got)
	}
}

func TestInsertNonRelationalPlacement(t *testing.T) {
	prog, _, err := parser.ParseProgram(`q(X) <- tiny(X, Y), Y > 2, huge(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Rules[0].Body
	// relational order: tiny(0), huge(2); builtin index 1.
	perm := insertNonRelational(body, []int{0, 2}, []int{1}, nil)
	if len(perm) != 3 {
		t.Fatalf("perm = %v", perm)
	}
	// Y bound after tiny, so the comparison slots in right after it.
	if perm[0] != 0 || perm[1] != 1 || perm[2] != 2 {
		t.Errorf("perm = %v, want [0 1 2]", perm)
	}
	// A builtin that never becomes ready lands at the end.
	prog2, _, _ := parser.ParseProgram(`q(X) <- tiny(X, Y), W > 2.`)
	perm2 := insertNonRelational(prog2.Rules[0].Body, []int{0}, []int{1}, nil)
	if perm2[len(perm2)-1] != 1 {
		t.Errorf("unready builtin not last: %v", perm2)
	}
}
