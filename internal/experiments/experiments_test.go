package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestE1KBZQualityShape(t *testing.T) {
	tab := E1KBZQuality(12, 1)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Metrics["frac_within_3x"] < 0.75 {
		t.Errorf("KBZ within-3x fraction = %v — far below the paper's shape", tab.Metrics["frac_within_3x"])
	}
	// Chains are the ASI-friendly case: expect high optimality there.
	if !strings.HasSuffix(tab.Rows[0][3], "%") {
		t.Errorf("optimal cell = %q", tab.Rows[0][3])
	}
}

func TestE2AnnealImprovesWithProbes(t *testing.T) {
	tab := E2AnnealQuality(15, 2)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Metrics["mean_ratio_at_400"] > 1.5 {
		t.Errorf("anneal mean ratio at 400 probes = %v", tab.Metrics["mean_ratio_at_400"])
	}
}

func TestE3ScalingShape(t *testing.T) {
	tab := E3StrategyScaling()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// exhaustive must be skipped for n > 9
	last := tab.Rows[len(tab.Rows)-1]
	if !strings.Contains(last[1], "skipped") {
		t.Errorf("exhaustive not skipped at n=12: %v", last)
	}
	if tab.Metrics["us_n8_kbz"] <= 0 {
		t.Error("no kbz timing metric")
	}
	// The space each search covers is exact: n! orderings for
	// exhaustive (pruned prefixes included), n·2^(n-1) table states for
	// dp, one state per probe for anneal.
	fact := map[int]float64{4: 24, 6: 720, 8: 40320}
	for _, n := range []int{4, 6, 8, 10, 12} {
		if f, ok := fact[n]; ok {
			if got := tab.Metrics[fmt.Sprintf("states_n%d_exhaustive", n)]; got != f {
				t.Errorf("n=%d exhaustive covered %v orderings, want %v", n, got, f)
			}
		}
		if got, want := tab.Metrics[fmt.Sprintf("states_n%d_dp", n)], float64(n<<(n-1)); got != want {
			t.Errorf("n=%d dp charged %v states, want %v", n, got, want)
		}
		if got := tab.Metrics[fmt.Sprintf("states_n%d_anneal", n)]; got != 400 {
			t.Errorf("n=%d anneal charged %v states, want 400", n, got)
		}
	}
}

func TestE4QuerySpecificSpeedup(t *testing.T) {
	tab := E4QuerySpecific()
	if tab.Metrics["speedup_d6"] < 5 {
		t.Errorf("bound-form speedup = %v, want >= 5x", tab.Metrics["speedup_d6"])
	}
}

func TestE5MethodOrdering(t *testing.T) {
	tab := E5RecursiveMethods()
	if tab.Metrics["sg_magic_over_seminaive"] > 0.5 {
		t.Errorf("magic/seminaive work ratio = %v, want << 1", tab.Metrics["sg_magic_over_seminaive"])
	}
	if tab.Metrics["sg_naive_over_seminaive_unif"] < 0.99 {
		t.Errorf("naive should not beat seminaive: %v", tab.Metrics["sg_naive_over_seminaive_unif"])
	}
}

func TestE6ChoosesCheapestCPerm(t *testing.T) {
	tab := E6Adornments()
	if tab.Metrics["cperm_candidates"] != 6 {
		t.Fatalf("candidates = %v", tab.Metrics["cperm_candidates"])
	}
	// exactly one row marked chosen, and it must carry the minimum cost
	chosen := 0
	for _, r := range tab.Rows {
		if r[4] == "<==" {
			chosen++
		}
	}
	if chosen != 1 {
		t.Errorf("chosen rows = %d", chosen)
	}
}

func TestE7AllVerdictsCorrect(t *testing.T) {
	tab := E7Safety()
	if tab.Metrics["verdicts_correct"] != 1 {
		t.Errorf("verdicts correct fraction = %v", tab.Metrics["verdicts_correct"])
		for _, r := range tab.Rows {
			t.Logf("%v", r)
		}
	}
}

func TestE8CrossoverObserved(t *testing.T) {
	tab := E8MatPipe()
	if tab.Metrics["crossover"] != 1 {
		t.Errorf("no materialize/pipeline crossover observed")
		for _, r := range tab.Rows {
			t.Logf("%v", r)
		}
	}
}

func TestE9PushSelectImproves(t *testing.T) {
	tab := E9PushSelect()
	if tab.Metrics["improvement_d4"] < 1.5 {
		t.Errorf("pushdown improvement at depth 4 = %v", tab.Metrics["improvement_d4"])
	}
}

func TestE10MemoHitRate(t *testing.T) {
	tab := E10Memoization()
	if tab.Metrics["hit_rate_k16"] < 0.8 {
		t.Errorf("memo hit rate at k=16 = %v", tab.Metrics["hit_rate_k16"])
	}
	// optimizations done must be constant across k
	var done string
	for _, r := range tab.Rows {
		if done == "" {
			done = r[3]
		} else if r[3] != done {
			t.Errorf("optimizations done varies: %v vs %v", r[3], done)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Paper: "claim",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note1"},
	}
	s := tab.String()
	for _, want := range []string{"== EX: demo ==", "paper: claim", "a  bb", "note: note1"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"1", "E1", "e10", "7", "A1", "a2", "A3"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) failed", id)
		}
	}
	if _, ok := ByID("99"); ok {
		t.Error("ByID(99) succeeded")
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in short mode")
	}
	tabs := All()
	if len(tabs) != 14 {
		t.Fatalf("experiments = %d", len(tabs))
	}
	for _, tab := range tabs {
		if tab.ID == "" || len(tab.Rows) == 0 || tab.Paper == "" {
			t.Errorf("experiment %q incomplete", tab.ID)
		}
	}
}

func TestIndexMatchesByID(t *testing.T) {
	idx := Index()
	if len(idx) != 14 {
		t.Fatalf("index entries = %d", len(idx))
	}
	for _, e := range idx {
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("index entry %s has no runner", e.ID)
		}
	}
}
