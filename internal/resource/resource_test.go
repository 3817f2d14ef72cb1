package resource

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilGovernorIsFree(t *testing.T) {
	var g *Governor
	if err := g.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTuples(1 << 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AddIteration(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddStates(1 << 30); err != nil {
		t.Fatal(err)
	}
	g.NoteDowngrade("x")
	if d := g.Downgrades(); d != nil {
		t.Fatalf("Downgrades = %v", d)
	}
	if c := g.Snapshot(); c != (Counters{}) {
		t.Fatalf("Snapshot = %+v", c)
	}
	if g.StatesExempt() != nil {
		t.Fatal("StatesExempt of nil governor must stay nil")
	}
}

func TestNewReturnsNilForEmptyBudget(t *testing.T) {
	if g := New(nil, Budget{}); g != nil {
		t.Fatal("empty budget should produce a nil governor")
	}
	if g := New(context.Background(), Budget{}); g != nil {
		t.Fatal("background ctx + empty budget should produce a nil governor")
	}
	if g := New(nil, Budget{MaxTuples: 1}); g == nil {
		t.Fatal("tuple budget should produce a governor")
	}
}

func TestTupleBudget(t *testing.T) {
	g := New(nil, Budget{MaxTuples: 10})
	var err error
	for i := 0; i < 11 && err == nil; i++ {
		err = g.AddTuples(1)
	}
	if !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("err = %v, want ErrTupleBudget", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err %T does not unwrap to *ResourceError", err)
	}
	if re.Counters.TuplesDerived != 11 {
		t.Errorf("TuplesDerived = %d, want 11", re.Counters.TuplesDerived)
	}
	// Sticky: every later charge returns the same violation.
	if err2 := g.AddIteration(); !errors.Is(err2, ErrTupleBudget) {
		t.Errorf("after trip, AddIteration = %v", err2)
	}
	if err2 := g.Tick(); !errors.Is(err2, ErrTupleBudget) {
		t.Errorf("after trip, Tick = %v", err2)
	}
}

func TestIterationBudget(t *testing.T) {
	g := New(nil, Budget{MaxIterations: 3})
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		err = g.AddIteration()
	}
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("err = %v, want ErrIterationBudget", err)
	}
}

func TestDeadline(t *testing.T) {
	g := New(nil, Budget{Deadline: time.Now().Add(-time.Millisecond)})
	if err := g.AddIteration(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var re *ResourceError
	if !errors.As(g.AddIteration(), &re) || re.Counters.Elapsed <= 0 {
		t.Fatalf("expected elapsed counter, got %+v", re)
	}
}

func TestTickAmortizedDeadline(t *testing.T) {
	g := New(nil, Budget{Deadline: time.Now().Add(-time.Millisecond)})
	var err error
	for i := 0; i < tickInterval+1 && err == nil; i++ {
		err = g.Tick()
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout within one tick interval", err)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Budget{})
	if g == nil {
		t.Fatal("cancellable ctx must produce a governor")
	}
	if err := g.AddIteration(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := g.AddIteration(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestContextDeadlineMapsToTimeout(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := New(ctx, Budget{})
	if err := g.AddIteration(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestStateBudgetIsRecoverable(t *testing.T) {
	g := New(nil, Budget{MaxStates: 5})
	var err error
	for i := 0; i < 6 && err == nil; i++ {
		err = g.AddStates(1)
	}
	if !errors.Is(err, ErrOptimizerBudget) {
		t.Fatalf("err = %v, want ErrOptimizerBudget", err)
	}
	// A state-budget trip must not poison unrelated charges: the
	// degraded search keeps deriving under the same governor.
	if err := g.AddTuples(1); err != nil {
		t.Fatalf("AddTuples after state trip = %v", err)
	}
	if err := g.Tick(); err != nil {
		t.Fatalf("Tick after state trip = %v", err)
	}
	// The exempt view keeps counting but never trips the state limit.
	ex := g.StatesExempt()
	for i := 0; i < 100; i++ {
		if err := ex.AddStates(1); err != nil {
			t.Fatalf("exempt AddStates = %v", err)
		}
	}
	if got := g.Snapshot().StatesExplored; got != 106 {
		t.Errorf("StatesExplored = %d, want 106 (shared counters)", got)
	}
	// But the non-exempt view still reports the violation.
	if err := g.AddStates(1); !errors.Is(err, ErrOptimizerBudget) {
		t.Fatalf("non-exempt AddStates = %v", err)
	}
}

// A batch charge that crosses the state limit leaves the same counters
// as charging its states one by one.
func TestStateBatchStopsAtLimit(t *testing.T) {
	g := New(nil, Budget{MaxStates: 5})
	if err := g.AddStates(3); err != nil {
		t.Fatal(err)
	}
	err := g.AddStates(10)
	var re *ResourceError
	if !errors.As(err, &re) || !errors.Is(err, ErrOptimizerBudget) {
		t.Fatalf("err = %v, want ErrOptimizerBudget", err)
	}
	if re.Counters.StatesExplored != 6 {
		t.Errorf("trip StatesExplored = %d, want 6 (first state past the limit)", re.Counters.StatesExplored)
	}
	if err := g.AddStates(4); !errors.Is(err, ErrOptimizerBudget) {
		t.Fatalf("after trip = %v", err)
	}
	if err := g.StatesExempt().AddStates(10); err != nil {
		t.Fatal(err)
	}
	if got := g.Snapshot().StatesExplored; got != 17 {
		t.Errorf("StatesExplored = %d, want 17", got)
	}
}

func TestDowngrades(t *testing.T) {
	g := New(nil, Budget{MaxStates: 1})
	g.NoteDowngrade("rule r: exhaustive fell back to kbz")
	g.StatesExempt().NoteDowngrade("second")
	d := g.Downgrades()
	if len(d) != 2 || d[0] != "rule r: exhaustive fell back to kbz" || d[1] != "second" {
		t.Fatalf("Downgrades = %v", d)
	}
}

func TestResourceErrorMessage(t *testing.T) {
	e := &ResourceError{Limit: ErrTupleBudget, Counters: Counters{TuplesDerived: 42, Elapsed: time.Second}, Detail: "limit 10"}
	msg := e.Error()
	for _, want := range []string{"derived-tuple budget exceeded", "limit 10", "tuples=42", "elapsed=1s"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}
