package store

// The commit lifecycle: fork, clone on first write, insert, freeze,
// publish — the path every written relation takes once per epoch. The
// property test drives it for thousands of seeded epochs and checks
// that merges never move a row, that distinct counts carried across
// forks stay exact, that the part chain stays logarithmic, and that a
// relation captured at an earlier epoch never changes, while readers
// probe published epochs concurrently (run it under -race).

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ldl/internal/term"
)

// lifeEpoch is one published epoch: the relation as published, its
// expected rows (a prefix of the model's append-only row list) and its
// distinct counts.
type lifeEpoch struct {
	r      *Relation
	rows   []Tuple
	counts []int
}

// checkEpoch verifies a published relation against its expected rows:
// every TupleAt, Contains, Len, and Distinct against a fresh count over
// the rows it returns.
func checkEpoch(t *testing.T, what string, ep *lifeEpoch) {
	t.Helper()
	r := ep.r
	if r.Len() != len(ep.rows) {
		t.Fatalf("%s: Len %d, want %d", what, r.Len(), len(ep.rows))
	}
	seen := make([]map[term.ID]bool, r.Arity)
	for c := range seen {
		seen[c] = map[term.ID]bool{}
	}
	for i, want := range ep.rows {
		got := r.TupleAt(i)
		for c := range seen {
			if !term.Equal(got[c], want[c]) {
				t.Fatalf("%s: TupleAt(%d) = %v, want %v", what, i, got, want)
			}
			seen[c][r.IDAt(c, i)] = true
		}
	}
	for c := range seen {
		if d := r.Distinct(c); d != len(seen[c]) || d != ep.counts[c] {
			t.Fatalf("%s: Distinct(%d) = %d, rows hold %d, published %d", what, c, d, len(seen[c]), ep.counts[c])
		}
	}
}

func TestFrozenLifecycleProperty(t *testing.T) {
	const (
		epochs = 2000
		tag    = "r/3"
	)
	rng := rand.New(rand.NewSource(33))
	row := func() Tuple {
		return Tuple{
			term.Atom(fmt.Sprintf("k%d", rng.Intn(40))),
			term.Int(int64(rng.Intn(31))),
			term.Atom(fmt.Sprintf("g%d", rng.Intn(5))),
		}
	}

	var (
		model []Tuple // append-only: every row ever added, in order
		keys  = map[string]bool{}
		hist  []*lifeEpoch
		pub   atomic.Pointer[[]*lifeEpoch] // published history, append-only
		stop  atomic.Bool
		wg    sync.WaitGroup
		errs  = make(chan string, 2)
	)
	db := NewDatabase()
	db.Ensure(tag, 3)
	db.Freeze(tag)

	// Readers probe random published epochs, old and new, while the
	// writer forks, inserts and merges.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				hp := pub.Load()
				if hp == nil {
					runtime.Gosched()
					continue
				}
				ep := (*hp)[rr.Intn(len(*hp))]
				if ep.r.Len() != len(ep.rows) {
					errs <- fmt.Sprintf("reader: Len %d, want %d", ep.r.Len(), len(ep.rows))
					return
				}
				for c, want := range ep.counts {
					if d := ep.r.Distinct(c); d != want {
						errs <- fmt.Sprintf("reader: Distinct(%d) = %d, want %d", c, d, want)
						return
					}
				}
				if len(ep.rows) == 0 {
					continue
				}
				want := ep.rows[rr.Intn(len(ep.rows))]
				if !contains(ep.r, want) {
					errs <- fmt.Sprintf("reader: lost row %v", want)
					return
				}
				for _, got := range ep.r.Lookup(1, want) {
					if !term.Equal(got[0], want[0]) {
						errs <- fmt.Sprintf("reader: Lookup(%v) returned %v", want[0], got)
						return
					}
				}
			}
		}(int64(g))
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
		select {
		case msg := <-errs:
			t.Error(msg)
		default:
		}
	}()

	for e := 0; e < epochs; e++ {
		fork := db.Fork()
		r := fork.EnsureOwned(tag, 3)
		n := rng.Intn(4)
		if e%50 == 49 {
			n = 60 // an occasional large batch, so parts differ in size
		}
		for i := 0; i < n; i++ {
			tup := row()
			if rng.Intn(4) == 0 && len(model) > 0 {
				tup = model[rng.Intn(len(model))] // a duplicate of an earlier epoch's row
			}
			added := mustInsert(r, tup)
			if want := !keys[tup.Key()]; added != want {
				t.Fatalf("epoch %d: Insert(%v) added=%v, want %v", e, tup, added, want)
			}
			if added {
				keys[tup.Key()] = true
				model = append(model, tup)
			}
		}
		if e%2 == 0 {
			r.Distinct(0) // the commit path reads counts before it freezes
		}
		fork.Freeze(tag)
		db = fork
		r = db.Relation(tag)
		if tail := r.Len() - r.PartRows(); tail != 0 {
			t.Fatalf("epoch %d: published with a %d-row tail", e, tail)
		}
		if max := bits.Len(uint(r.Len())) + 1; r.Parts() > max {
			t.Fatalf("epoch %d: %d rows in %d parts, want ≤ %d", e, r.Len(), r.Parts(), max)
		}
		ep := &lifeEpoch{r: r, rows: model[:len(model):len(model)], counts: make([]int, 3)}
		for c := range ep.counts {
			ep.counts[c] = r.Distinct(c)
		}
		checkEpoch(t, fmt.Sprintf("epoch %d", e), ep)
		hist = append(hist, ep)
		h := hist[:len(hist):len(hist)]
		pub.Store(&h)
		if e%250 == 0 {
			for k := 0; k < len(hist); k += 97 {
				checkEpoch(t, fmt.Sprintf("epoch %d seen at epoch %d", k, e), hist[k])
			}
		}
	}
}

// tenParts builds a relation of ten parts whose sizes halve (2^12 down
// to 2^3 rows), so the size-tiered merge leaves every one in place.
func tenParts(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation("r", 2)
	i := 0
	for k := 12; k >= 3; k-- {
		for j := 0; j < 1<<k; j++ {
			mustInsert(r, Tuple{term.Int(int64(i)), term.Atom(fmt.Sprintf("v%d", i%97))})
			i++
		}
		r = r.Frozen()
	}
	if r.Parts() != 10 {
		t.Fatalf("built %d parts, want 10", r.Parts())
	}
	return r
}

// TestPartSuffixReadsAreOSuffix: ColumnSince and DeltaSince
// on a parts-backed relation gather only the suffix they return — from
// the part holding the watermark onward — instead of building the
// whole-relation view.
func TestPartSuffixReadsAreOSuffix(t *testing.T) {
	r := tenParts(t)
	n := r.Len()
	// Correctness, from every part boundary and from inside parts.
	for _, from := range []int{0, 1, r.partOff[5], r.partOff[5] + 3, r.partOff[9] - 1, n - 2, n - 1, n} {
		col, d := r.ColumnSince(1, from), r.DeltaSince(from)
		if len(col) != n-from || d.Len() != n-from {
			t.Fatalf("from %d: %d ids, %d-row delta; want %d", from, len(col), d.Len(), n-from)
		}
		for j := range col {
			want := r.TupleAt(from + j)
			if col[j] != r.IDAt(1, from+j) || d.TupleAt(j).Key() != want.Key() || !contains(d, want) {
				t.Fatalf("from %d: suffix row %d differs from TupleAt(%d) = %v", from, j, from+j, want)
			}
		}
	}
	// Cost: a 10-row suffix spanning the last two parts, read from
	// fresh relation instances (an epoch's first read finds no cached
	// whole-relation view), allocates by the suffix, not by the
	// relation's 8 184 rows.
	from := n - 10
	for _, c := range []struct {
		name          string
		allocs, bytes uint64
		f             func(*Relation)
	}{
		{"ColumnSince", 1, 256, func(r *Relation) { r.ColumnSince(0, from) }},
		{"DeltaSince", 16, 2 << 10, func(r *Relation) { r.DeltaSince(from) }},
	} {
		fresh := make([]*Relation, 200)
		for i := range fresh {
			fresh[i] = r.CloneOwned()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, x := range fresh {
			c.f(x)
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / uint64(len(fresh))
		bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(len(fresh))
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %d allocs and %d B per 10-row suffix, want ≤ %d and ≤ %d", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// TestCloneCarriesDistinctCounts: two clones of one unfrozen relation
// — a commit whose fork was dropped, then its retry — each count their
// own inserts from the parent's counts; neither sees the other's.
func TestCloneCarriesDistinctCounts(t *testing.T) {
	r := NewRelation("r", 2)
	for i := 0; i < 10; i++ {
		mustInsert(r, Tuple{term.Int(int64(i)), term.Int(int64(i % 3))})
	}
	if r.Distinct(0) != 10 || r.Distinct(1) != 3 {
		t.Fatalf("parent counts %d, %d", r.Distinct(0), r.Distinct(1))
	}
	dropped, retry := r.CloneOwned(), r.CloneOwned()
	mustInsert(dropped, Tuple{term.Int(100), term.Int(7)})
	mustInsert(retry, Tuple{term.Int(100), term.Int(7)})
	for _, c := range []*Relation{dropped, retry} {
		if c.Distinct(0) != 11 || c.Distinct(1) != 4 {
			t.Fatalf("clone counts %d, %d, want 11, 4", c.Distinct(0), c.Distinct(1))
		}
	}
	if r.Distinct(0) != 10 || r.Distinct(1) != 3 {
		t.Fatalf("clone inserts changed the parent's counts to %d, %d", r.Distinct(0), r.Distinct(1))
	}
}
