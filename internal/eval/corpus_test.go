package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/store"
)

// corpusQueries is the number of embedded queries across
// testdata/corpus; TestCorpusEquivalence checks it ran every one.
const corpusQueries = 37

// TestCorpusEquivalence is the kernel acceptance suite over the golden
// corpus (the examples plus the negation, builtin-deferral, complex-
// term and non-linear-recursion programs): every embedded query runs
// unoptimized, semi-naive, through the block executor and through the
// reference interpreter, and the two must produce byte-identical
// answers and identical logical work counters. The structured-term and
// non-linear programs must also run on the block executor (Blocks > 0);
// nonlinear.ldl reads the head it inserts into in every delta round,
// so it runs on one-row frames throughout.
func TestCorpusEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	mustBlock := map[string]bool{"complexterms": true, "listapp": true, "treefold": true, "nonlinear": true}
	total := 0
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".ldl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, queries, err := parser.ParseProgram(string(src))
			if err != nil {
				t.Fatal(err)
			}
			// As Load does: facts of predicates that also have rules
			// move into rules, so the program's facts are all base.
			if prog, err = lang.Normalize(prog); err != nil {
				t.Fatal(err)
			}
			if len(queries) == 0 {
				t.Fatalf("%s has no embedded queries", f)
			}
			db := store.NewDatabase()
			if err := db.LoadFacts(prog); err != nil {
				t.Fatal(err)
			}
			run := func(q lang.Query, opts Options) (string, Counters) {
				opts.Method = SemiNaive
				e, err := New(prog, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				ts, err := e.Answers(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				var b strings.Builder
				for _, tu := range ts {
					b.WriteString(tu.String())
					b.WriteByte('\n')
				}
				return b.String(), e.Counters
			}
			for _, q := range queries {
				total++
				want, ref := run(q, referenceOpts(Options{}))
				got, ker := run(q, Options{})
				if got != want {
					t.Errorf("%s: answers diverge from the reference\n got:\n%s\nwant:\n%s", q, got, want)
				}
				if !sameWork(ref, ker) {
					t.Errorf("%s: counters diverge: reference %+v vs compiled %+v", q, ref, ker)
				}
				if mustBlock[name] && ker.Blocks == 0 {
					t.Errorf("%s: Blocks = 0, kernel executor never engaged", q)
				}
			}
		})
	}
	if total != corpusQueries {
		t.Errorf("ran %d corpus queries, want %d", total, corpusQueries)
	}
}
