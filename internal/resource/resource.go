// Package resource implements the runtime resource governor: the
// defense layer that turns "this query is taking too long / deriving
// too much" into a typed, diagnosable error instead of a hung or
// OOM-killed process. The safety analysis (internal/safety) is a
// static guarantee about termination in the limit; it says nothing
// about wall-clock time or memory, and a query that passes it can
// still run the bottom-up fixpoint through millions of irrelevant
// tuples when cardinality estimates are wrong, or drive the
// exhaustive conjunct-ordering search through a factorial state
// space. The Governor is the dynamic complement: one per query, it is
// threaded from the public API through the optimizer and both
// execution engines, charged at tuple/iteration/state granularity,
// and trips with a ResourceError carrying the work counters at the
// moment of the violation.
//
// The governor is safe for concurrent use: the counters are atomics
// and the sticky violation is published through an atomic pointer, so
// any goroutine may charge or inspect a query's governor. The
// uncontended cost stays a few nanoseconds per charge.
//
// A nil *Governor is valid everywhere and enforces nothing — the
// ungoverned path stays allocation- and branch-cheap.
package resource

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The sentinel errors of the budget taxonomy. Every error the governor
// produces is a *ResourceError that wraps exactly one of these, so
// callers match with errors.Is and read counters with errors.As.
var (
	// ErrTimeout: the wall-clock deadline (WithTimeout or a context
	// deadline) passed.
	ErrTimeout = errors.New("wall-clock deadline exceeded")
	// ErrCanceled: the context was canceled by the caller.
	ErrCanceled = errors.New("evaluation canceled")
	// ErrTupleBudget: more tuples were derived than allowed.
	ErrTupleBudget = errors.New("derived-tuple budget exceeded")
	// ErrIterationBudget: the fixpoint ran more rounds than allowed.
	ErrIterationBudget = errors.New("fixpoint iteration budget exceeded")
	// ErrOptimizerBudget: the plan search explored more states than
	// allowed. Inside the optimizer this triggers graceful degradation
	// (fall back to the quadratic KBZ strategy) rather than failure, so
	// it normally never escapes to callers.
	ErrOptimizerBudget = errors.New("optimizer state budget exceeded")
)

// Counters is a snapshot of how much work a governed computation had
// done when it was observed (usually: when it was stopped).
type Counters struct {
	TuplesDerived  int           // tuples charged via AddTuples
	Iterations     int           // fixpoint rounds charged via AddIteration
	StatesExplored int           // optimizer states charged via AddStates
	Elapsed        time.Duration // since the governor was created
}

// ResourceError reports a violated budget together with the work done
// up to the violation. It wraps one of the sentinel errors above.
type ResourceError struct {
	Limit    error    // the violated sentinel (ErrTimeout, ErrTupleBudget, ...)
	Counters Counters // work done when the budget tripped
	Detail   string   // optional phase hint, e.g. "bottom-up fixpoint"
}

func (e *ResourceError) Error() string {
	msg := e.Limit.Error()
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return fmt.Sprintf("%s [tuples=%d iterations=%d states=%d elapsed=%s]",
		msg, e.Counters.TuplesDerived, e.Counters.Iterations, e.Counters.StatesExplored,
		e.Counters.Elapsed.Round(time.Millisecond))
}

// Unwrap exposes the sentinel for errors.Is.
func (e *ResourceError) Unwrap() error { return e.Limit }

// Budget is the set of limits one governor enforces. Zero values mean
// "unlimited" for every field.
type Budget struct {
	// Deadline is the absolute wall-clock cutoff.
	Deadline time.Time
	// MaxTuples bounds tuples derived across the whole evaluation.
	MaxTuples int
	// MaxIterations bounds fixpoint rounds across the whole evaluation.
	MaxIterations int
	// MaxStates bounds optimizer search states (permutations and
	// c-permutations priced under the cost model).
	MaxStates int
}

// IsZero reports whether the budget limits nothing.
func (b Budget) IsZero() bool {
	return b.Deadline.IsZero() && b.MaxTuples == 0 && b.MaxIterations == 0 && b.MaxStates == 0
}

// govCore is the shared mutable state behind one governor; views made
// by StatesExempt alias it so counters stay globally consistent.
// Counters are atomics: one governor may be charged from several
// goroutines at once.
type govCore struct {
	ctx      context.Context
	start    time.Time
	deadline time.Time

	maxTuples     int64
	maxIterations int64
	maxStates     int64

	tuples     atomic.Int64
	iterations atomic.Int64
	states     atomic.Int64

	tick      atomic.Int64
	tupleTick atomic.Int64

	// done is the sticky first *fatal* violation (time, cancellation,
	// tuple or iteration budget), returned on every later check so
	// loops unwind fast. A state-budget violation is deliberately NOT
	// sticky: it is recoverable — the optimizer degrades to a cheaper
	// strategy and keeps running under the same governor.
	done     atomic.Pointer[ResourceError]
	stateErr atomic.Pointer[ResourceError]

	mu         sync.Mutex // guards downgrades
	downgrades []string
}

// Governor meters one query's resource consumption. It is safe for
// concurrent use.
type Governor struct {
	core *govCore
	// exemptStates views skip the MaxStates limit (they still count
	// states and still honor deadlines); used for the optimizer's
	// degraded last-resort search after the budget tripped.
	exemptStates bool
}

// New builds a governor for the budget. ctx may be nil; a ctx deadline
// earlier than b.Deadline wins. It returns nil — the valid "no
// governance" governor — when there is nothing to enforce.
func New(ctx context.Context, b Budget) *Governor {
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (b.Deadline.IsZero() || d.Before(b.Deadline)) {
			b.Deadline = d
		}
		if ctx.Done() == nil && b.IsZero() {
			return nil
		}
	} else if b.IsZero() {
		return nil
	}
	return &Governor{core: &govCore{
		ctx:           ctx,
		start:         time.Now(),
		deadline:      b.Deadline,
		maxTuples:     int64(b.MaxTuples),
		maxIterations: int64(b.MaxIterations),
		maxStates:     int64(b.MaxStates),
	}}
}

// StatesExempt returns a view of g that shares all counters and every
// limit except MaxStates. The optimizer hands it to the KBZ fallback
// so the degraded search cannot immediately re-trip the budget that
// caused the degradation.
func (g *Governor) StatesExempt() *Governor {
	if g == nil {
		return nil
	}
	return &Governor{core: g.core, exemptStates: true}
}

// Snapshot returns the current work counters.
func (g *Governor) Snapshot() Counters {
	if g == nil {
		return Counters{}
	}
	c := g.core
	return Counters{
		TuplesDerived:  int(c.tuples.Load()),
		Iterations:     int(c.iterations.Load()),
		StatesExplored: int(c.states.Load()),
		Elapsed:        time.Since(c.start),
	}
}

// fail records and returns the sticky violation. Under a race the first
// published error wins and every contender returns it.
func (g *Governor) fail(limit error, detail string) error {
	c := g.core
	e := &ResourceError{Limit: limit, Counters: g.Snapshot(), Detail: detail}
	if c.done.CompareAndSwap(nil, e) {
		return e
	}
	return c.done.Load()
}

// checkTime enforces ctx cancellation and the deadline immediately.
func (g *Governor) checkTime() error {
	c := g.core
	if d := c.done.Load(); d != nil {
		return d
	}
	if c.ctx != nil {
		switch c.ctx.Err() {
		case nil:
		case context.DeadlineExceeded:
			return g.fail(ErrTimeout, "")
		default:
			return g.fail(ErrCanceled, "")
		}
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return g.fail(ErrTimeout, "")
	}
	return nil
}

// tickInterval amortizes clock reads on the hottest paths. Inner-loop
// steps are microseconds each, so 256 steps keep deadline overshoot
// far below the 2× tolerance the API promises.
const tickInterval = 256

// Tick is the cheap inner-loop check: it enforces only time limits,
// reading the clock every tickInterval calls (the counter is shared, so
// with several goroutines ticking the clock is read every tickInterval
// charges across all of them, not per goroutine).
func (g *Governor) Tick() error {
	if g == nil {
		return nil
	}
	c := g.core
	if d := c.done.Load(); d != nil {
		return d
	}
	if c.tick.Add(1)%tickInterval != 0 {
		return nil
	}
	return g.checkTime()
}

// AddTuples charges n derived tuples. The tuple limit is enforced on
// every call; the clock every 64 tuples.
func (g *Governor) AddTuples(n int) error {
	if g == nil {
		return nil
	}
	c := g.core
	if d := c.done.Load(); d != nil {
		return d
	}
	t := c.tuples.Add(int64(n))
	if c.maxTuples > 0 && t > c.maxTuples {
		return g.fail(ErrTupleBudget, fmt.Sprintf("limit %d", c.maxTuples))
	}
	if tt := c.tupleTick.Add(int64(n)); tt >= 64 {
		// Benign race: concurrent resets only change which charge pays
		// for the clock read, never whether deadlines are enforced.
		c.tupleTick.Store(0)
		return g.checkTime()
	}
	return nil
}

// AddIteration charges one fixpoint round; rounds are coarse, so the
// clock is checked every time.
func (g *Governor) AddIteration() error {
	if g == nil {
		return nil
	}
	c := g.core
	if d := c.done.Load(); d != nil {
		return d
	}
	it := c.iterations.Add(1)
	if c.maxIterations > 0 && it > c.maxIterations {
		return g.fail(ErrIterationBudget, fmt.Sprintf("limit %d", c.maxIterations))
	}
	return g.checkTime()
}

// AddStates charges n optimizer search states (each state prices one
// candidate ordering under the cost model, which dwarfs a clock read,
// so time is checked every call). A batch that crosses the state limit
// charges exactly as n AddStates(1) calls would: it stops at the first
// state past the limit, so a search that charges a pruned subtree in
// one call trips with the same counters as one that walks it.
func (g *Governor) AddStates(n int) error {
	if g == nil {
		return nil
	}
	c := g.core
	if d := c.done.Load(); d != nil {
		return d
	}
	if !g.exemptStates && c.maxStates > 0 && n > 1 {
		n = int(min(int64(n), max(c.maxStates-c.states.Load()+1, 1)))
	}
	s := c.states.Add(int64(n))
	if !g.exemptStates && c.maxStates > 0 && s > c.maxStates {
		e := &ResourceError{Limit: ErrOptimizerBudget, Counters: g.Snapshot(),
			Detail: fmt.Sprintf("limit %d", c.maxStates)}
		if c.stateErr.CompareAndSwap(nil, e) {
			return e
		}
		return c.stateErr.Load()
	}
	return g.checkTime()
}

// NoteDowngrade records a graceful-degradation event (e.g. exhaustive
// search fell back to KBZ) for Plan.Explain.
func (g *Governor) NoteDowngrade(msg string) {
	if g == nil {
		return
	}
	g.core.mu.Lock()
	g.core.downgrades = append(g.core.downgrades, msg)
	g.core.mu.Unlock()
}

// Downgrades lists the degradation events recorded so far.
func (g *Governor) Downgrades() []string {
	if g == nil {
		return nil
	}
	g.core.mu.Lock()
	defer g.core.mu.Unlock()
	return append([]string(nil), g.core.downgrades...)
}
