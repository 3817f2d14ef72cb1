package experiments

import "testing"

func TestA1DecisionFlips(t *testing.T) {
	tab := A1MagicOverhead()
	if tab.Metrics["decision_flips"] != 1 {
		t.Error("recursive-method choice never flipped across the overhead sweep")
		for _, r := range tab.Rows {
			t.Logf("%v", r)
		}
	}
}

// TestA2MemoSpeedup checks, in counted quantities, what Figure 7-1's
// memo saves at k=6 shared references: fewer OR-subtree optimizations
// and at least 1.5x fewer optimizer states than with the memo disabled.
func TestA2MemoSpeedup(t *testing.T) {
	tab := A2MemoAblation()
	m := tab.Metrics
	if m["optimizations_memo_k6"] >= m["optimizations_nomemo_k6"] {
		t.Errorf("optimizations at k=6: %v with memo, %v without; want fewer with memo", m["optimizations_memo_k6"], m["optimizations_nomemo_k6"])
	}
	if m["states_nomemo_k6"] < 1.5*m["states_memo_k6"] {
		t.Errorf("optimizer states at k=6: %v with memo, %v without; want >= 1.5x fewer with memo", m["states_memo_k6"], m["states_nomemo_k6"])
	}
}

// TestE11TotalSpeedup checks, in counted quantities, that the optimizer
// pays for itself on the sg workload: unoptimized work exceeds optimizer
// states plus optimized work by more than 1.2x.
func TestE11TotalSpeedup(t *testing.T) {
	tab := E11BottomLine()
	if tab.Metrics["work_ratio_sg"] <= 1.2 {
		t.Errorf("work ratio (incl. optimizer states) = %v, want > 1.2x", tab.Metrics["work_ratio_sg"])
		for _, r := range tab.Rows {
			t.Logf("%v", r)
		}
	}
}

func TestA3MethodMixShifts(t *testing.T) {
	tab := A3AccessPathCosts()
	if tab.Metrics["indexnl_declines"] != 1 {
		t.Error("index-nl usage did not decline as probes got pricier")
		for _, r := range tab.Rows {
			t.Logf("%v", r)
		}
	}
}
