package eval

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ldl/internal/depgraph"
	"ldl/internal/parser"
	"ldl/internal/store"
	"ldl/internal/term"
)

// poolProgram is a chain of n edges with reachability from a start node
// the run binds itself (start/1 has no facts), plus tc, a negation and
// a builtin, so a run fills derived, delta and input relations and
// builds indexes on them.
func poolProgram(t *testing.T, n int) (*ProgramKernels, *store.Database) {
	t.Helper()
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "e(%d, %d).\n", i, i+1)
	}
	b.WriteString(`
reach(Y) <- start(X), e(X, Y).
reach(Y) <- reach(X), e(X, Y).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
cut(X) <- reach(X), not tc(1, X).
far(X, Y) <- tc(X, Y), Y - X > 3.
`)
	prog, _, err := parser.ParseProgram(b.String())
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return CompileProgram(prog, g), db
}

// poolRun runs one pooled engine from the given start node and returns
// its reach and far relations rendered, or the run's error.
func poolRun(t *testing.T, pool *Pool, pk *ProgramKernels, db *store.Database, start int, opts Options) (*Engine, string, error) {
	t.Helper()
	e := pool.Get(pk, db, opts)
	slot, ok := pk.Slot("start/1")
	if !ok {
		t.Fatal("start/1 has no slot")
	}
	e.Input(slot).InsertIDs([]term.ID{term.Intern(term.Int(start))})
	if err := e.Run(); err != nil {
		return e, "", err
	}
	return e, e.RelationFor("reach/1").String() + e.RelationFor("far/2").String(), nil
}

// assertReleased checks what a released engine may keep: emptied
// relations with no rows, indexes or parts, and no reference to the
// database, the governor, the size hints or a resolved relation.
func assertReleased(t *testing.T, e *Engine) {
	t.Helper()
	check := func(what string, r *store.Relation) {
		if r != nil && (r.Len() != 0 || r.Indexes() != 0 || r.Parts() != 0) {
			t.Errorf("released %s %s: %d rows, %d indexes, %d parts", what, r.Name, r.Len(), r.Indexes(), r.Parts())
		}
	}
	for _, r := range e.own {
		check("relation", r)
	}
	for _, d := range e.deltas {
		for _, set := range d {
			for _, r := range set {
				check("delta", r)
			}
		}
	}
	for s, r := range e.rels {
		if r != nil {
			t.Errorf("released engine still resolves slot %d to %s", s, r.Name)
		}
	}
	if e.DB != nil || e.opts.Gov != nil || e.opts.SizeHints != nil {
		t.Error("released engine still references the database, governor or size hints")
	}
}

// TestPoolRelease pins the release discipline of pooled engines: a
// released engine holds no rows, indexes or parts and pins no
// database, whether its run finished or was aborted mid-fixpoint; the
// next run over the pool answers exactly as a fresh engine; and an
// engine grown past the pool's cap is dropped, not pooled.
func TestPoolRelease(t *testing.T) {
	pk, db := poolProgram(t, 12)
	var fresh Pool
	_, want1, err := poolRun(t, &fresh, pk, db, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, want5, err := poolRun(t, &Pool{}, pk, db, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var pool Pool
	e, got, err := poolRun(t, &pool, pk, db, 1, Options{SizeHints: map[string]int{"tc/2": 8}})
	if err != nil || got != want1 {
		t.Fatalf("first run: %q, %v; want %q", got, err, want1)
	}
	pool.Put(e)
	assertReleased(t, e)

	// Aborted mid-fixpoint by the tuple backstop: the released state is
	// as clean as a finished one's.
	e, _, err = poolRun(t, &pool, pk, db, 1, Options{MaxTuples: 10})
	if !errors.Is(err, ErrRunaway) {
		t.Fatalf("MaxTuples 10: err = %v, want ErrRunaway", err)
	}
	pool.Put(e)
	assertReleased(t, e)

	for _, c := range []struct {
		start int
		want  string
	}{{5, want5}, {1, want1}} {
		e, got, err := poolRun(t, &pool, pk, db, c.start, Options{})
		if err != nil || got != c.want {
			t.Fatalf("start %d after an abort: %q, %v; want %q", c.start, got, err, c.want)
		}
		pool.Put(e)
	}

	// A run whose relations hold room for more rows than the cap is
	// dropped: Put leaves it as it is and the pool does not return it.
	var big Pool
	e, _, err = poolRun(t, &big, pk, db, 1, Options{SizeHints: map[string]int{"tc/2": 2 * maxPooledRows}})
	if err != nil {
		t.Fatal(err)
	}
	big.Put(e)
	if e.DB == nil || e.RelationFor("tc/2").Len() == 0 {
		t.Error("an oversize engine was released into the pool")
	}
	if again := big.Get(pk, db, Options{}); again == e {
		t.Error("the pool returned an oversize engine")
	}
}
