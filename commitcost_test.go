package ldl

// Commit cost versus relation size. A commit freezes every relation it
// wrote, so the next commit's fork copies nothing, its distinct counts
// are carried as integers, and the parts merge by size tier: the work a
// commit does — and the bytes it allocates — follow the batch, not the
// relation it lands in.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ldl/internal/term"
	"ldl/internal/wal"
)

const commitCostProgram = "has(K, V) <- kv(K, V).\n"

// commitCostSystem loads a System whose kv relation holds base rows.
func commitCostSystem(t testing.TB, base int) *System {
	t.Helper()
	var b strings.Builder
	b.WriteString(commitCostProgram)
	for i := 0; i < base; i++ {
		fmt.Fprintf(&b, "kv(p%d, %d).\n", i, i*7919%1000003)
	}
	s, err := Load(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// commitCostBatch is the i-th four-fact batch: fresh keys, values drawn
// from a range that repeats, so the distinct counts see both new and
// already-present values.
func commitCostBatch(i int) [][]term.Term {
	rows := make([][]term.Term, 4)
	for j := range rows {
		rows[j] = []term.Term{term.Atom(fmt.Sprintf("w%d_%d", i, j)), term.Int(int64((i*4 + j) * 31 % 5000))}
	}
	return rows
}

// bytesPerCommit runs n commits through commit (InsertFacts on a leader,
// ApplyReplicated on a follower) after one warm-up commit, and returns
// the bytes allocated per commit. The warm-up pays the one-off copy of
// the boot relation's tail; the batches are built before measuring.
func bytesPerCommit(t testing.TB, base, n int, follower bool) uint64 {
	t.Helper()
	s := commitCostSystem(t, base)
	if follower {
		s.SetReadOnly("leader:0")
	}
	srcs := make([]string, n+1)
	batches := make([]wal.Batch, n+1)
	for i := range srcs {
		rows := commitCostBatch(i)
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "kv(%s, %s).\n", r[0], r[1])
		}
		srcs[i] = b.String()
		batches[i] = wal.Batch{Epoch: s.Epoch() + uint64(i) + 1, Rels: []wal.RelFacts{relFacts("kv/2", 2, rows)}}
	}
	apply := func(i int) {
		var err error
		if follower {
			err = s.ApplyReplicated(batches[i])
		} else {
			_, _, err = s.InsertFacts(srcs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	apply(0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		apply(i)
	}
	runtime.ReadMemStats(&after)
	if got, want := s.Epoch(), batches[n].Epoch; follower && got != want {
		t.Fatalf("follower at epoch %d, want %d", got, want)
	}
	rows, err := s.Query(fmt.Sprintf("has(w%d_0, V)", n))
	if err != nil || len(rows) != 1 {
		t.Fatalf("last batch not readable: %v %v", rows, err)
	}
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestInsertFactsCostIndependentOfSize is the size-independence gate:
// a four-fact commit allocates about as much on a 50 000-row relation
// as on a 1 000-row one, on both write paths.
func TestInsertFactsCostIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 50 000-row relation")
	}
	const commits = 1000
	for _, follower := range []bool{false, true} {
		small := bytesPerCommit(t, 1000, commits, follower)
		large := bytesPerCommit(t, 50000, commits, follower)
		t.Logf("follower=%v: %d B/commit at 1 000 rows, %d B/commit at 50 000 rows", follower, small, large)
		if large > 2*small || large > 64<<10 {
			t.Errorf("follower=%v: %d B/commit at 50 000 rows vs %d at 1 000 rows (want ≤ 2x and ≤ 64 KiB)", follower, large, small)
		}
	}
}

// BenchmarkInsertFactsLargeBase is one four-fact InsertFacts into a
// relation that already holds 50 000 rows.
func BenchmarkInsertFactsLargeBase(b *testing.B) {
	s := commitCostSystem(b, 50000)
	srcs := make([]string, b.N+1)
	for i := range srcs {
		var sb strings.Builder
		for _, r := range commitCostBatch(i) {
			fmt.Fprintf(&sb, "kv(%s, %s).\n", r[0], r[1])
		}
		srcs[i] = sb.String()
	}
	if _, _, err := s.InsertFacts(srcs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if _, _, err := s.InsertFacts(srcs[i]); err != nil {
			b.Fatal(err)
		}
	}
}
