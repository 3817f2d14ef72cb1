package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ldl"
)

const sgSrc = `
par(a1, b1). par(a2, b1). par(b1, c1). par(b2, c1). par(b3, c2).
par(d1, b2). par(d2, b3). par(e1, c2).
sg(X, X) <- par(X, Z).
sg(X, Y) <- par(X, X1), sg(X1, Y1), par(Y, Y1).
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
`

func mustLoad(t testing.TB, src string) *ldl.System {
	t.Helper()
	sys, err := ldl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func rowsKey(rows [][]string) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, ",")
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// TestPlanCacheHitSkipsAllCompilation is the acceptance check for the
// prepared-plan cache: the first query of a form pays optimization and
// kernel compilation; the second query of the same adorned form — even
// with different constants — is a cache hit that performs zero
// optimizer exploration (no Prepare call: the miss counter stands
// still) and zero kernel compilation (the work counter in the
// response).
func TestPlanCacheHitSkipsAllCompilation(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{})
	ctx := context.Background()

	r1, err := s.Query(ctx, "sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first query reported a cache hit")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.PlanCacheSize != 1 {
		t.Fatalf("after miss: %+v", st)
	}

	// Same adorned form, different constant: must hit.
	r2, err := s.Query(ctx, "sg(d1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("same-form query missed the cache")
	}
	if r2.Stats.KernelCompiles != 0 {
		t.Errorf("cache-hit execution compiled %d kernels, want 0", r2.Stats.KernelCompiles)
	}
	st = s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after hit: %+v", st)
	}

	// Different binding pattern = different form = new plan.
	r3, err := s.Query(ctx, "sg(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("all-free form hit the bound form's plan")
	}
	if s.Stats().PlanCacheSize != 2 {
		t.Errorf("cache size = %d, want 2", s.Stats().PlanCacheSize)
	}

	// Answers agree with the library's one-shot path.
	want, err := s.System().Query("sg(d1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r2.Rows) != rowsKey(want) {
		t.Errorf("cached answers %v, one-shot %v", r2.Rows, want)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{MaxPlans: 2})
	ctx := context.Background()
	for _, g := range []string{"sg(a1, Y)", "sg(X, Y)", "anc(a1, Y)"} {
		if _, err := s.Query(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PlanCacheSize != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 forms with cap 2: %+v", st)
	}
	// The oldest form (sg bound) was evicted: querying it again misses.
	r, err := s.Query(ctx, "sg(a2, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("evicted form reported a hit")
	}
}

func TestFactLoadInvalidatesPlans(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{})
	ctx := context.Background()
	if _, err := s.Query(ctx, "sg(a1, Y)"); err != nil {
		t.Fatal(err)
	}
	added, epoch, err := s.Load(ctx, "par(a3, b1).")
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || epoch != 2 {
		t.Fatalf("Load = (%d, %d)", added, epoch)
	}
	r, err := s.Query(ctx, "sg(a3, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("stale plan served after epoch advance")
	}
	if r.Stats.Epoch != 2 {
		t.Errorf("executed against epoch %d, want 2", r.Stats.Epoch)
	}
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// a3 must be visible (sibling generation via b1).
	found := false
	for _, row := range r.Rows {
		if row[1] == "a1" {
			found = true
		}
	}
	if !found {
		t.Errorf("sg(a3, a1) missing from %v", r.Rows)
	}
}

// TestEpochDeltaRevalidation: an epoch advance that leaves a plan's
// statistics inputs untouched (the load landed in a relation the plan
// never reads) must NOT invalidate the cached plan — the entry is
// revalidated against the new catalog and served as a hit, and the
// answers still come from the new epoch's snapshot.
func TestEpochDeltaRevalidation(t *testing.T) {
	s := New(mustLoad(t, sgSrc+"other(k1, k2).\n"), Config{})
	ctx := context.Background()
	if _, err := s.Query(ctx, "sg(a1, Y)"); err != nil {
		t.Fatal(err)
	}
	// Load into a relation the sg plan never scans: epoch bumps, the
	// par statistics are unchanged.
	if _, _, err := s.Load(ctx, "other(k3, k4)."); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(ctx, "sg(a2, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("plan with unchanged stats inputs was not kept across the epoch advance")
	}
	if r.Stats.Epoch != 2 {
		t.Errorf("executed against epoch %d, want 2 (revalidated plans still run on the current snapshot)", r.Stats.Epoch)
	}
	st := s.Stats()
	if st.Revalidations != 1 || st.Invalidations != 0 {
		t.Errorf("revalidations = %d, invalidations = %d, want 1, 0", st.Revalidations, st.Invalidations)
	}
	// The fingerprint result is cached per epoch: a further hit in the
	// same epoch is plain, not another revalidation.
	if _, err := s.Query(ctx, "sg(b1, Y)"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Revalidations != 1 {
		t.Errorf("revalidations = %d after same-epoch hit, want still 1", st.Revalidations)
	}
	// A load that DOES touch the plan's inputs invalidates as before.
	if _, _, err := s.Load(ctx, "par(a9, b1)."); err != nil {
		t.Fatal(err)
	}
	r, err = s.Query(ctx, "sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("stale plan served after its base stats changed")
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestCompoundFormHitsCache serves a goal with a compound argument
// through the plan cache: the first form misses and is prepared, a
// goal of the same form with other constants nested in the compound
// hits, and both answer exactly what unoptimized evaluation does.
func TestCompoundFormHitsCache(t *testing.T) {
	src := "p(f(a), 1).\np(f(b), 2).\np(g(a), 3).\nq(X, N) <- p(X, N).\n"
	sys := mustLoad(t, src)
	s := New(sys, Config{})
	for i, c := range []struct {
		goal string
		hit  bool
		rows string
	}{
		{"q(f(a), N)", false, "f(a),1"},
		{"q(f(b), N)", true, "f(b),2"},
		{"q(f(c), N)", true, ""},
	} {
		r, err := s.Query(context.Background(), c.goal)
		if err != nil {
			t.Fatalf("%s: %v", c.goal, err)
		}
		if r.CacheHit != c.hit {
			t.Errorf("%s: CacheHit = %v, want %v", c.goal, r.CacheHit, c.hit)
		}
		want, _, err := sys.EvaluateUnoptimized(c.goal)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsKey(r.Rows); got != rowsKey(want) || got != c.rows {
			t.Errorf("%s: rows %q, unoptimized %q, want %q", c.goal, got, rowsKey(want), c.rows)
		}
		if st := s.Stats(); st.PlanCacheSize != 1 || st.Misses != 1 || st.Hits != int64(i) {
			t.Errorf("%s: stats %+v, want one cached form, 1 miss, %d hits", c.goal, st, i)
		}
	}
}

func TestUnsafeAndMalformedQueries(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{})
	ctx := context.Background()
	if _, err := s.Query(ctx, "sg(a1, Y"); err == nil {
		t.Error("malformed goal accepted")
	}
	if _, err := s.Query(ctx, "nosuch(X)"); err == nil {
		t.Error("unsafe (undefined, all-free) goal accepted")
	}
	// The service keeps serving afterwards.
	if _, err := s.Query(ctx, "sg(a1, Y)"); err != nil {
		t.Errorf("service wedged after bad queries: %v", err)
	}
}

func TestAdmissionShedding(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{MaxConcurrent: 1, MaxQueue: -1})
	// Hold the only slot directly (white-box): with the limiter
	// saturated and a zero-length queue, every service entry point must
	// shed immediately with ErrOverloaded rather than block.
	release, err := s.adm.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), "sg(a1, Y)"); !errors.Is(err, ErrOverloaded) {
		t.Errorf("saturated Query: err = %v, want ErrOverloaded", err)
	}
	if _, _, err := s.Load(context.Background(), "par(z9, b1)."); !errors.Is(err, ErrOverloaded) {
		t.Errorf("saturated Load: err = %v, want ErrOverloaded", err)
	}
	release()
	if _, err := s.Query(context.Background(), "sg(a1, Y)"); err != nil {
		t.Errorf("query after release: %v", err)
	}
	st := s.Stats()
	if st.Admission.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", st.Admission.Rejected)
	}
}

// TestSnapshotIsolation is the satellite acceptance test: many reader
// goroutines query while one writer applies fact batches; every answer
// set must equal the full evaluation of the goal at some published
// epoch — never a torn state. Run under -race in CI.
func TestSnapshotIsolation(t *testing.T) {
	base := `
edge(n0, n1). edge(n1, n2). edge(n2, n3).
tc(X, Y) <- edge(X, Y).
tc(X, Y) <- edge(X, Z), tc(Z, Y).
`
	const batches = 6
	batch := func(i int) string {
		return fmt.Sprintf("edge(n%d, n%d).\nedge(m%d, n0).\n", 3+i, 4+i, i)
	}

	// Reference: full evaluation of the goal at every epoch, computed
	// on independent Systems.
	const goal = "tc(n0, Y)"
	want := map[uint64]string{}
	src := base
	ref := mustLoad(t, src)
	rows, err := ref.Query(goal)
	if err != nil {
		t.Fatal(err)
	}
	want[1] = rowsKey(rows)
	for i := 0; i < batches; i++ {
		src += batch(i)
		ref = mustLoad(t, src)
		rows, err := ref.Query(goal)
		if err != nil {
			t.Fatal(err)
		}
		want[uint64(i+2)] = rowsKey(rows)
	}

	s := New(mustLoad(t, base), Config{MaxConcurrent: -1})
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 64)

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := s.Query(ctx, goal)
				if err != nil {
					errc <- err
					return
				}
				w, ok := want[resp.Stats.Epoch]
				if !ok {
					errc <- fmt.Errorf("answer from unknown epoch %d", resp.Stats.Epoch)
					return
				}
				if got := rowsKey(resp.Rows); got != w {
					errc <- fmt.Errorf("epoch %d: torn read:\n got %s\nwant %s", resp.Stats.Epoch, got, w)
					return
				}
			}
		}()
	}

	// Single writer: apply every batch with small gaps so readers run
	// against several distinct epochs.
	for i := 0; i < batches; i++ {
		if _, _, err := s.Load(ctx, batch(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := s.System().Epoch(); got != batches+1 {
		t.Errorf("final epoch = %d, want %d", got, batches+1)
	}
}

// TestConcurrentMixedWorkload stresses the full service surface from
// many goroutines: cached queries of several forms, fact loads and
// malformed input, all interleaved. It asserts only invariants (no
// panic, no wedge, counters balance) — the correctness of each answer
// is TestSnapshotIsolation's job. Run under -race in CI.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{MaxConcurrent: 4, MaxQueue: 32, DefaultTimeout: 10 * time.Second})
	ctx := context.Background()
	goals := []string{"sg(a1, Y)", "sg(d1, Y)", "sg(X, Y)", "anc(a1, Y)", "anc(X, Y)", "sg(a1, Y"}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch {
				case g == 0 && i%5 == 0:
					// One goroutine doubles as the fact writer.
					if _, _, err := s.Load(ctx, fmt.Sprintf("par(w%d_%d, b1).", g, i)); err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("load: %v", err)
					}
				default:
					_, err := s.Query(ctx, goals[(g+i)%len(goals)])
					if err != nil && !errors.Is(err, ErrOverloaded) &&
						!strings.Contains(err.Error(), "parse") && !strings.Contains(err.Error(), "expected") {
						t.Errorf("query %q: %v", goals[(g+i)%len(goals)], err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Admission.Active != 0 || st.Admission.Queued != 0 {
		t.Errorf("admission not drained: %+v", st.Admission)
	}
	if st.Queries == 0 || st.Hits == 0 {
		t.Errorf("suspicious counters: %+v", st)
	}
}

// BenchmarkPreparedVsCold quantifies the cache's point: repeated
// executions of one adorned form through the service (prepared plans,
// precompiled kernels) versus paying Optimize+compile on every call.
// The acceptance bar for this PR is ≥5× throughput; typical results are
// far higher because optimization dwarfs execution on small data.
func BenchmarkPreparedVsCold(b *testing.B) {
	b.Run("prepared", func(b *testing.B) {
		s := New(mustLoad(b, sgSrc), Config{MaxConcurrent: -1})
		ctx := context.Background()
		if _, err := s.Query(ctx, "sg(a1, Y)"); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(ctx, "sg(a1, Y)"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		sys := mustLoad(b, sgSrc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := sys.Optimize("sg(a1, Y)")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPreparedCacheHitPath pins what a warm query form must not pay,
// deterministically (the wall-clock prepared-vs-cold ratio is the
// benchmark's point_hot vs cold_forms): every repeat of a cached form
// is a cache hit that compiles no kernel and prepares no plan, and its
// allocation count stays under a ceiling.
func TestPreparedCacheHitPath(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{MaxConcurrent: -1})
	ctx := context.Background()
	if _, err := s.Query(ctx, "sg(a1, Y)"); err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().Misses
	warm := func() {
		resp, err := s.Query(ctx, "sg(a1, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatal("warm query missed the plan cache")
		}
		if resp.Stats.KernelCompiles != 0 {
			t.Fatalf("warm query compiled %d kernels, want 0", resp.Stats.KernelCompiles)
		}
	}
	allocs := testing.AllocsPerRun(30, warm)
	t.Logf("cache-hit query: %.0f allocs/op", allocs)
	if got := s.Stats().Misses; got != misses {
		t.Errorf("Misses moved %d -> %d across the warm loop", misses, got)
	}
	// 51 allocs/op: one parse of the goal, its constants bound as
	// interned IDs, and pooled engines and kernel states (a cold
	// Optimize+Execute is ~2 100). The ceiling is measured + 10%, not
	// room for a re-prepare, a kernel compile or unpooled state. Under
	// -race, sync.Pool drops a random quarter of its puts, so about one
	// run in four rebuilds a pooled engine: 72–122 measured over 8 runs,
	// ceiling 150.
	ceiling := 56.0
	if raceEnabled {
		ceiling = 150
	}
	if allocs > ceiling {
		t.Errorf("cache-hit query: %.0f allocs/op, want <= %.0f", allocs, ceiling)
	}
}

// ancTreeSrc is the point workload: anc over a parent tree of the
// given fanout and depth, every node pointing at its parent, so a bound
// anc(leaf, Y) answers depth rows whatever the size of the tree.
func ancTreeSrc(fanout, depth int) (src string, leaves int) {
	var b strings.Builder
	b.WriteString("anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\n")
	width := 1
	for l := 1; l <= depth; l++ {
		width *= fanout
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, "par(n%d_%d, n%d_%d).\n", l, i, l-1, i/fanout)
		}
	}
	return b.String(), width
}

// TestServicePointCacheHitAllocs pins the whole cost of a cached point
// query at the service edge, as a server runs it (admission on, a
// per-request timeout): anc over the fanout-4, depth-7 tree, a 7-row
// answer. The goal is parsed once and its constants bound as interned
// IDs into relations the form's pooled engines recycle.
func TestServicePointCacheHitAllocs(t *testing.T) {
	src, leaves := ancTreeSrc(4, 7)
	s := New(mustLoad(t, src), Config{DefaultTimeout: 10 * time.Second})
	ctx := context.Background()
	goals := make([]string, 64)
	for i := range goals {
		goals[i] = fmt.Sprintf("anc(n7_%d, Y)", (i*7919)%leaves)
	}
	i := 0
	query := func() {
		resp, err := s.Query(ctx, goals[i%len(goals)])
		i++
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit || len(resp.Rows) != 7 {
			t.Fatalf("cache hit %v, %d rows; want a hit with 7", resp.CacheHit, len(resp.Rows))
		}
	}
	if _, err := s.Query(ctx, goals[len(goals)-1]); err != nil {
		t.Fatal(err) // prepare the form and warm the pools
	}
	allocs := testing.AllocsPerRun(50, query)
	t.Logf("cached point query: %.0f allocs/op", allocs)
	// 49 allocs/op measured (229 when every request re-parsed its goal,
	// built a program of seed facts and grew fresh per-run relations);
	// the ceiling is measured + 10%. Under -race, sync.Pool drops a
	// random quarter of its puts, so about one run in four rebuilds a
	// pooled engine: 82–110 measured over 8 runs, ceiling 135.
	ceiling := 54.0
	if raceEnabled {
		ceiling = 135
	}
	if allocs > ceiling {
		t.Errorf("cached point query: %.0f allocs/op, want <= %.0f", allocs, ceiling)
	}
}

// TestServingLeavesPlansUnchanged: serving queries must not change the
// plans a System chooses. Every query of every corpus program is served
// twice through Query; then each goal's Explain must equal, byte for
// byte, the Explain of a fresh Load of the same program. A plan is a
// function of the program and the epoch's facts, not of the executions
// that came before it.
func TestServingLeavesPlansUnchanged(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	explain := func(sys *ldl.System, goal string) string {
		t.Helper()
		p, err := sys.Optimize(goal)
		if err != nil {
			t.Fatalf("%s: %v", goal, err)
		}
		return p.Explain()
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".ldl"), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			served := mustLoad(t, string(src))
			s := New(served, Config{MaxConcurrent: -1})
			ctx := context.Background()
			for round := 0; round < 2; round++ {
				for _, goal := range served.Queries() {
					// Unsafe forms are refused; serving them is part of the history.
					_, _ = s.Query(ctx, goal)
				}
			}
			fresh := mustLoad(t, string(src))
			for _, goal := range served.Queries() {
				if got, want := explain(served, goal), explain(fresh, goal); got != want {
					t.Errorf("%s: plan after serving differs from a fresh load\n got:\n%s\nwant:\n%s", goal, got, want)
				}
			}
		})
	}
}

// TestMaterializedServingPath pins the view-serving fast path: on a
// materialized System, queries are answered from the views (FromViews,
// ViewQueries advances, no plan is prepared or cached), answers match
// the planner path byte for byte, and a LOAD is visible to the very
// next query — the views ride the epoch publish.
func TestMaterializedServingPath(t *testing.T) {
	msys, err := ldl.Load(sgSrc, ldl.WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	s := New(msys, Config{})
	ref := New(mustLoad(t, sgSrc), Config{})
	ctx := context.Background()

	for _, goal := range []string{"sg(a1, Y)", "anc(d1, Y)", "anc(X, Y)"} {
		got, err := s.Query(ctx, goal)
		if err != nil {
			t.Fatal(err)
		}
		if !got.FromViews {
			t.Errorf("%s: not served from views", goal)
		}
		want, err := ref.Query(ctx, goal)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(got.Rows) != rowsKey(want.Rows) {
			t.Errorf("%s: views %q != planner %q", goal, rowsKey(got.Rows), rowsKey(want.Rows))
		}
	}
	st := s.Stats()
	if st.ViewQueries != 3 {
		t.Errorf("ViewQueries = %d, want 3", st.ViewQueries)
	}
	if st.PlanCacheSize != 0 {
		t.Errorf("PlanCacheSize = %d, want 0 (views bypass the planner)", st.PlanCacheSize)
	}

	if _, _, err := s.Load(ctx, "par(z9, a1)."); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(ctx, "anc(z9, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !got.FromViews || len(got.Rows) == 0 {
		t.Errorf("post-LOAD query: FromViews=%v rows=%v, want fresh facts visible from views", got.FromViews, got.Rows)
	}
}

// TestWaitEpoch covers the read-your-writes primitive: an already-
// published epoch returns immediately, a pending one is observed as
// soon as a write publishes it, and a wait the replica cannot satisfy
// fails with a typed LaggingError carrying the shortfall.
func TestWaitEpoch(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{})
	ctx := context.Background()

	if err := s.WaitEpoch(ctx, s.System().Epoch(), 0); err != nil {
		t.Fatalf("wait for published epoch: %v", err)
	}

	want := s.System().Epoch() + 1
	done := make(chan error, 1)
	go func() { done <- s.WaitEpoch(ctx, want, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	if _, _, err := s.Load(ctx, "par(zz1, zz2)."); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("wait across a publish: %v", err)
	}

	err := s.WaitEpoch(ctx, s.System().Epoch()+7, 10*time.Millisecond)
	if !errors.Is(err, ErrLagging) {
		t.Fatalf("unsatisfiable wait: %v, want ErrLagging", err)
	}
	var le *LaggingError
	if !errors.As(err, &le) || le.Behind() != 7 {
		t.Fatalf("lagging detail: %+v (behind=%d), want behind 7", le, le.Behind())
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.WaitEpoch(cctx, s.System().Epoch()+1, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: %v, want context.Canceled", err)
	}
}

// TestWaitEpochWakesOnPublish pins the wait to publication, not to a
// poll: with an hour-long bound the wait still returns as soon as a
// write lands, a cancel mid-wait returns the context's error, and a
// LaggingError reports the epoch reached when the wait gave up — not
// the one it started from.
func TestWaitEpochWakesOnPublish(t *testing.T) {
	s := New(mustLoad(t, sgSrc), Config{})
	ctx := context.Background()

	start := s.System().Epoch()
	var le *LaggingError
	if err := s.WaitEpoch(ctx, start+1, 0); !errors.As(err, &le) || le.At != start {
		t.Fatalf("timeout 0: %v, want LaggingError at %d", err, start)
	}

	for i := 1; i <= 3; i++ {
		done := make(chan error, 1)
		go func() { done <- s.WaitEpoch(ctx, start+uint64(i), time.Hour) }()
		time.Sleep(5 * time.Millisecond) // let the wait block before the write lands
		if _, _, err := s.Load(ctx, fmt.Sprintf("par(w%d, w%d).", i, i+1)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("wait %d never woke on its publish", i)
		}
	}

	// One publish short of the request: the wait expires at start+4.
	done := make(chan error, 1)
	go func() { done <- s.WaitEpoch(ctx, start+5, 50*time.Millisecond) }()
	if _, _, err := s.Load(ctx, "par(w9, w10)."); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.As(err, &le) || le.At != start+4 || le.Want != start+5 {
		t.Fatalf("expired wait: %v, want LaggingError want %d at %d", err, start+5, start+4)
	}

	cctx, cancel := context.WithCancel(ctx)
	go func() { done <- s.WaitEpoch(cctx, start+9, time.Hour) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("wait canceled mid-flight: %v, want context.Canceled", err)
	}
}
