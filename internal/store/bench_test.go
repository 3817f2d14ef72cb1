package store_test

// Micro-benchmarks for the engine's hottest data-plane operations:
// tuple insert/dedup, membership probes and indexed lookups. These are
// the paths the interned-term/string-free storage overhaul targets;
// BENCH_PR2.json records their trajectory.

import (
	"fmt"
	"testing"

	"ldl/internal/store"
	"ldl/internal/term"
)

// mustInsert inserts t, panicking on a structural error.
func mustInsert(r *store.Relation, t store.Tuple) {
	if _, err := r.Insert(t); err != nil {
		panic(err)
	}
}

// tcTuples builds n distinct edge tuples (atom, atom).
func tcTuples(n int) []store.Tuple {
	out := make([]store.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = store.Tuple{term.Atom(fmt.Sprintf("n%d", i)), term.Atom(fmt.Sprintf("n%d", i+1))}
	}
	return out
}

// compTuples builds n distinct tuples carrying compound terms, the
// worst case for key serialization.
func compTuples(n int) []store.Tuple {
	out := make([]store.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = store.Tuple{
			term.Comp{Functor: "pair", Args: []term.Term{term.Int(i), term.Atom("x")}},
			term.List(term.Int(i), term.Int(i+1)),
		}
	}
	return out
}

// BenchmarkTupleInsertDedup measures inserting a batch of tuples where
// half are duplicates — the fixpoint engine's novelty filter in
// miniature. Reported per inserted tuple.
func BenchmarkTupleInsertDedup(b *testing.B) {
	for _, tc := range []struct {
		name   string
		tuples []store.Tuple
	}{
		{"atoms", tcTuples(1024)},
		{"compounds", compTuples(1024)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := store.NewRelation("bench", 2)
				for _, t := range tc.tuples {
					mustInsert(r, t)
				}
				// Re-insert everything: pure dedup-probe load.
				for _, t := range tc.tuples {
					mustInsert(r, t)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*len(tc.tuples)), "ns/tuple")
		})
	}
}

// BenchmarkContains measures membership probes against a populated
// relation (the negation / novelty-check path).
func BenchmarkContains(b *testing.B) {
	tuples := tcTuples(4096)
	r := store.NewRelation("bench", 2)
	rows := make([][]term.ID, len(tuples))
	for i, t := range tuples {
		mustInsert(r, t)
		rows[i] = []term.ID{term.Intern(t[0]), term.Intern(t[1])}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.ContainsIDs(rows[i%len(rows)]) {
			b.Fatal("missing tuple")
		}
	}
}

// BenchmarkJoinLookup measures indexed probes: a bound-first-column
// lookup against an indexed relation, the access path every join in
// the engine reduces to.
func BenchmarkJoinLookup(b *testing.B) {
	tuples := tcTuples(4096)
	r := store.NewRelation("bench", 2)
	for _, t := range tuples {
		mustInsert(r, t)
	}
	probe := store.Tuple{nil, nil}
	r.Lookup(1, tuples[0]) // builds the index on column 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe[0] = tuples[i%len(tuples)][0]
		if got := r.Lookup(1, probe); len(got) != 1 {
			b.Fatalf("lookup returned %d tuples", len(got))
		}
	}
}
