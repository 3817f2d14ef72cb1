package ldl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldl/internal/parser"
	"ldl/internal/term"
	"ldl/internal/wal"
)

func renderAns(rows [][]string) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// genInsertSchedule builds a deterministic random multi-batch insert
// schedule for a program: each batch recombines column values of
// existing rows of the base relations (so the new facts are type-
// consistent with what the rules expect) and sprinkles in exact
// duplicates (no-op inserts, exercising the empty-delta path).
func genInsertSchedule(t *testing.T, src string, batches int, seed int64) []string {
	t.Helper()
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	db := sys.snapshot().db
	tags := db.Tags()
	out := make([]string, 0, batches)
	for b := 0; b < batches; b++ {
		var sb strings.Builder
		for _, tag := range tags {
			r := db.Relation(tag)
			// Skip normalization-internal relations ($-renamed fact halves)
			// and anything empty.
			if r.Len() == 0 || strings.Contains(tag, "$") || rng.Intn(2) == 0 {
				continue
			}
			name := tag[:strings.LastIndexByte(tag, '/')]
			for k := 0; k < 1+rng.Intn(3); k++ {
				args := make([]string, r.Arity)
				if rng.Intn(4) == 0 {
					// Exact duplicate of an existing row.
					row := r.TupleAt(rng.Intn(r.Len()))
					for c, v := range row {
						args[c] = v.String()
					}
				} else {
					// Recombine: each column value sampled from that column
					// of a random existing row.
					for c := 0; c < r.Arity; c++ {
						args[c] = r.TupleAt(rng.Intn(r.Len()))[c].String()
					}
				}
				fact := fmt.Sprintf("%s(%s).\n", name, strings.Join(args, ", "))
				// Keep only facts whose rendering parses back — operator-
				// shaped terms do not round-trip through source text.
				if _, _, err := parser.ParseProgram(fact); err != nil {
					continue
				}
				sb.WriteString(fact)
			}
		}
		out = append(out, sb.String())
	}
	return out
}

// TestIncrementalEquivalenceCorpus is the tentpole acceptance suite:
// every corpus program runs a random multi-batch insert schedule
// through a materialized System, and after every batch the view
// answers must be byte-identical to a scratch recomputation over the
// accumulated facts. Programs with negation take the per-stratum
// fallback path here and must come out identical too.
func TestIncrementalEquivalenceCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".ldl")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			schedule := genInsertSchedule(t, src, 3, int64(len(src)))
			inc, err := Load(src, WithMaterialized())
			if err != nil {
				t.Fatal(err)
			}
			accum := src
			for bi, batch := range schedule {
				if strings.TrimSpace(batch) != "" {
					if _, _, err := inc.InsertFacts(batch); err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					accum += "\n" + batch
				}
				scratch, err := Load(accum)
				if err != nil {
					t.Fatalf("batch %d: scratch load: %v", bi, err)
				}
				for _, goal := range inc.Queries() {
					rows, ok, err := inc.AnswersFromViews(goal)
					if err != nil || !ok {
						t.Fatalf("batch %d %s: views unavailable (ok=%v err=%v)", bi, goal, ok, err)
					}
					want, _, err := scratch.EvaluateUnoptimized(goal)
					if err != nil {
						t.Fatalf("batch %d %s: scratch: %v", bi, goal, err)
					}
					if got, ref := renderAns(rows), renderAns(want); got != ref {
						t.Errorf("batch %d %s: incremental diverges from scratch\n got:\n%s\nwant:\n%s",
							bi, goal, got, ref)
					}
				}
			}
		})
	}
}

// TestIncrementalVsScratchMaintenance checks incremental maintenance
// against the scratch computation of the same views: after every
// batch, the maintained views must be byte-identical to those a fresh
// Load of the accumulated facts computes at boot (an empty fixpoint),
// while the telemetry shows maintenance stayed incremental.
func TestIncrementalVsScratchMaintenance(t *testing.T) {
	src := `
e(1, 2). e(2, 3). e(3, 4).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
tc(X, Y)?
`
	inc, err := Load(src, WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	accum := src
	for i := 5; i < 9; i++ {
		batch := fmt.Sprintf("e(%d, %d).", i, i+1)
		if _, _, err := inc.InsertFacts(batch); err != nil {
			t.Fatal(err)
		}
		accum += "\n" + batch
		scr, err := Load(accum, WithMaterialized())
		if err != nil {
			t.Fatal(err)
		}
		a, ok, err := inc.AnswersFromViews("tc(X, Y)")
		if err != nil || !ok {
			t.Fatalf("incremental views: ok=%v err=%v", ok, err)
		}
		b, ok, err := scr.AnswersFromViews("tc(X, Y)")
		if err != nil || !ok {
			t.Fatalf("scratch views: ok=%v err=%v", ok, err)
		}
		if renderAns(a) != renderAns(b) {
			t.Fatalf("views diverge after batch %d:\n%s\nvs\n%s", i, renderAns(a), renderAns(b))
		}
	}
	ist := inc.IVMStats()
	if ist.ScratchFallbacks != 0 {
		t.Errorf("incremental mode took %d scratch fallbacks on a monotone program, want 0", ist.ScratchFallbacks)
	}
	if ist.IncrementalRounds == 0 {
		t.Error("incremental mode reports no incremental rounds")
	}
	if ist.LastDeltaRows == 0 {
		t.Error("incremental mode reports no per-epoch delta size")
	}
	if ist.Epochs != 5 { // boot + 4 batches
		t.Errorf("epochs: %d, want 5", ist.Epochs)
	}
}

// TestIncrementalNegationFallbackSystem pins the fallback rule at the
// System level: a program whose negation reads a changing stratum must
// recompute that stratum (ScratchFallbacks advances) and must never
// serve the stale answer.
func TestIncrementalNegationFallbackSystem(t *testing.T) {
	src := `
node(1). node(2). node(3).
e(1, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
unreach(X, Y) <- node(X), node(Y), not tc(X, Y).
`
	sys, err := Load(src, WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	rows, ok, err := sys.AnswersFromViews("unreach(1, 3)")
	if err != nil || !ok {
		t.Fatalf("views: ok=%v err=%v", ok, err)
	}
	if len(rows) != 1 {
		t.Fatalf("before insert: unreach(1,3) = %v, want one row", rows)
	}
	if _, _, err := sys.InsertFacts("e(2, 3)."); err != nil {
		t.Fatal(err)
	}
	rows, ok, err = sys.AnswersFromViews("unreach(1, 3)")
	if err != nil || !ok {
		t.Fatalf("views after insert: ok=%v err=%v", ok, err)
	}
	if len(rows) != 0 {
		t.Fatalf("stale view: unreach(1,3) = %v after e(2,3) made 3 reachable", rows)
	}
	if st := sys.IVMStats(); st.ScratchFallbacks == 0 {
		t.Errorf("stats: %+v, want the negation stratum counted as a scratch fallback", st)
	}
}

// TestIncrementalFollowerMaintainsViews drives the replication path:
// a follower applying shipped batches maintains its views through the
// same incremental machinery, epoch for epoch.
func TestIncrementalFollowerMaintainsViews(t *testing.T) {
	src := `
e(1, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`
	follower, err := Load(src, WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")
	batch := wal.Batch{Epoch: 2, Rels: []wal.RelFacts{relFacts("e/2", 2,
		[][]term.Term{{term.Int(2), term.Int(3)}, {term.Int(3), term.Int(4)}})}}
	if err := follower.ApplyReplicated(batch); err != nil {
		t.Fatal(err)
	}
	rows, ok, err := follower.AnswersFromViews("tc(1, Y)")
	if err != nil || !ok {
		t.Fatalf("follower views: ok=%v err=%v", ok, err)
	}
	if len(rows) != 3 {
		t.Fatalf("follower tc(1,Y) = %v, want 3 rows", rows)
	}
	if st := follower.IVMStats(); st.Epochs != 2 || st.ScratchFallbacks != 0 {
		t.Errorf("follower stats: %+v, want 2 epochs maintained incrementally", st)
	}
}

// TestIncrementalSurvivesRecovery checks the WAL interaction: recovery
// rebuilds the views from the recovered fact base in one scratch pass,
// after which maintenance is incremental again.
func TestIncrementalSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	src := `
e(1, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`
	sys, err := Load(src, WithStorageDir(dir), WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts("e(2, 3)."); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := Load(src, WithStorageDir(dir), WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	rows, ok, err := sys2.AnswersFromViews("tc(1, Y)")
	if err != nil || !ok {
		t.Fatalf("recovered views: ok=%v err=%v", ok, err)
	}
	if len(rows) != 2 {
		t.Fatalf("recovered tc(1,Y) = %v, want 2 rows", rows)
	}
	if _, _, err := sys2.InsertFacts("e(3, 4)."); err != nil {
		t.Fatal(err)
	}
	rows, _, err = sys2.AnswersFromViews("tc(1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("post-recovery incremental tc(1,Y) = %v, want 3 rows", rows)
	}
	if st := sys2.IVMStats(); st.IncrementalRounds == 0 {
		t.Errorf("stats after recovery: %+v, want incremental maintenance resumed", st)
	}
}

// TestViewAnswersMatchQueryPath pins view serving to the optimized
// query path: for bound, partially bound and free goals the rendered
// answers must be identical to Plan.Execute's.
func TestViewAnswersMatchQueryPath(t *testing.T) {
	src := `
flat(1, 2). up(2, 3). dn(3, 4). flat(3, 3). up(1, 2). dn(2, 1).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, Z), sg(Z, W), dn(W, Y).
`
	sys, err := Load(src, WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []string{"sg(1, Y)", "sg(X, Y)", "sg(X, X)", "sg(1, 4)", "sg(9, Y)"} {
		fromViews, ok, err := sys.AnswersFromViews(goal)
		if err != nil || !ok {
			t.Fatalf("%s: views: ok=%v err=%v", goal, ok, err)
		}
		want, err := sys.Query(goal)
		if err != nil {
			t.Fatalf("%s: query: %v", goal, err)
		}
		if renderAns(fromViews) != renderAns(want) {
			t.Errorf("%s: views %q != query %q", goal, renderAns(fromViews), renderAns(want))
		}
	}
}
