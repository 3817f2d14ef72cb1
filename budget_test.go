package ldl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// cycleTC builds transitive closure over an n-node cycle. The safety
// analysis accepts every query form (pure Datalog), yet tc(X, Y) holds
// n*n tuples — the canonical safe-but-expensive workload the resource
// governor exists for.
func cycleTC(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "e(n%d, n%d). ", i, i%n+1)
	}
	b.WriteString("\ntc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	return b.String()
}

func loadCycle(t *testing.T, n int) *System {
	t.Helper()
	sys, err := Load(cycleTC(n))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// checkResourceErr asserts err matches the sentinel and carries
// populated counters.
func checkResourceErr(t *testing.T, err, want error) ResourceCounters {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceError", err)
	}
	if re.Counters.Elapsed <= 0 {
		t.Errorf("counters not populated: %+v", re.Counters)
	}
	return re.Counters
}

func TestTupleBudgetBottomUp(t *testing.T) {
	sys := loadCycle(t, 150) // 22,500 tc tuples, budget 10,000
	plan, err := sys.Optimize("tc(X, Y)", WithStrategy(StrategyKBZ), WithMaxTuples(10_000))
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute()
	c := checkResourceErr(t, err, ErrTupleBudget)
	if c.TuplesDerived < 10_000 {
		t.Errorf("TuplesDerived = %d, want >= 10000", c.TuplesDerived)
	}
}

func TestTimeoutBottomUp(t *testing.T) {
	// Big enough that an ungoverned run takes far longer than the
	// budget: 600² = 360,000 tuples.
	sys := loadCycle(t, 600)
	const budget = 50 * time.Millisecond
	plan, err := sys.Optimize("tc(X, Y)", WithStrategy(StrategyKBZ), WithTimeout(budget))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = plan.Execute()
	elapsed := time.Since(start)
	checkResourceErr(t, err, ErrTimeout)
	if elapsed > 2*budget {
		t.Errorf("returned after %v, want <= %v", elapsed, 2*budget)
	}
}

func TestTimeoutUnoptimized(t *testing.T) {
	sys := loadCycle(t, 600)
	const budget = 50 * time.Millisecond
	start := time.Now()
	_, _, err := sys.EvaluateUnoptimized("tc(X, Y)", WithTimeout(budget))
	elapsed := time.Since(start)
	checkResourceErr(t, err, ErrTimeout)
	if elapsed > 2*budget {
		t.Errorf("returned after %v, want <= %v", elapsed, 2*budget)
	}
}

func TestContextCancellation(t *testing.T) {
	sys := loadCycle(t, 600)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run must stop almost immediately
	plan, err := sys.Optimize("tc(X, Y)", WithStrategy(StrategyKBZ))
	if err != nil {
		t.Fatal(err)
	}
	plan.prep.opts.ctx = ctx
	_, err = plan.Execute()
	checkResourceErr(t, err, ErrCanceled)
}

func TestContextDeadlineIsTimeout(t *testing.T) {
	sys := loadCycle(t, 600)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	plan, err := sys.Optimize("tc(X, Y)", WithStrategy(StrategyKBZ), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute()
	checkResourceErr(t, err, ErrTimeout)
}

// chainJoin is a query whose single rule joins k base relations — the
// factorial ordering space that makes exhaustive search blow a small
// state budget.
func chainJoin(k int) string {
	var b strings.Builder
	for i := 1; i <= k; i++ {
		for v := 1; v <= k+3; v++ {
			fmt.Fprintf(&b, "r%d(v%d, v%d). ", i, v, v+1)
		}
	}
	b.WriteString("\nchain(X0")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, ", X%d", i)
	}
	b.WriteString(") <- ")
	for i := 1; i <= k; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "r%d(X%d, X%d)", i, i-1, i)
	}
	b.WriteString(".\n")
	return b.String()
}

func TestOptimizerBudgetFallsBackToKBZ(t *testing.T) {
	sys, err := Load(chainJoin(7))
	if err != nil {
		t.Fatal(err)
	}
	// 7! = 5040 orderings; 20 states cannot cover them, so exhaustive
	// must downgrade to KBZ rather than fail.
	plan, err := sys.Optimize("chain(X0, X1, X2, X3, X4, X5, X6, X7)",
		WithStrategy(StrategyExhaustive), WithOptimizerBudget(20))
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v", err)
	}
	if !plan.Safe() {
		t.Fatalf("plan unexpectedly unsafe: %s", plan.Reason())
	}
	explain := plan.Explain()
	if !strings.Contains(explain, "note:") || !strings.Contains(explain, "kbz") {
		t.Errorf("Explain does not mention the downgrade:\n%s", explain)
	}
	// The degraded plan still executes, and agrees with the baseline.
	rows, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sys.EvaluateUnoptimized("chain(X0, X1, X2, X3, X4, X5, X6, X7)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) != len(want) {
		t.Errorf("degraded plan: %d rows, unoptimized: %d", len(rows), len(want))
	}
}

// TestPlanStatesCounted checks Plan.States: an ungoverned Optimize
// reports 0, an unreachable optimizer budget counts without limiting,
// and a budget that trips reports the states charged past it.
func TestPlanStatesCounted(t *testing.T) {
	sys, err := Load(chainJoin(7))
	if err != nil {
		t.Fatal(err)
	}
	goal := "chain(X0, X1, X2, X3, X4, X5, X6, X7)"
	states := func(opts ...Option) int {
		plan, err := sys.Optimize(goal, append(opts, WithStrategy(StrategyExhaustive))...)
		if err != nil {
			t.Fatal(err)
		}
		return plan.States
	}
	if n := states(); n != 0 {
		t.Errorf("ungoverned States = %d, want 0", n)
	}
	full := states(WithOptimizerBudget(math.MaxInt))
	if full <= 20 {
		t.Errorf("unlimited States = %d, want > 20 (7 relations, exhaustive)", full)
	}
	if n := states(WithOptimizerBudget(math.MaxInt)); n != full {
		t.Errorf("States not deterministic: %d then %d", full, n)
	}
	if n := states(WithOptimizerBudget(20)); n <= 20 || n >= full {
		t.Errorf("budget-20 States = %d, want in (20, %d)", n, full)
	}
}

func TestNoBudgetUnchanged(t *testing.T) {
	// Without budget options no governor exists and results match the
	// governed-but-generous run.
	sys := loadCycle(t, 20)
	plain, err := sys.Query("tc(n1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	governed, err := sys.Query("tc(n1, Y)",
		WithTimeout(time.Minute), WithMaxTuples(1_000_000), WithMaxIterations(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 20 || len(governed) != 20 {
		t.Errorf("answers: plain %d, governed %d, want 20", len(plain), len(governed))
	}
}
