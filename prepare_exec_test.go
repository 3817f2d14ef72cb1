package ldl

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// ancTree builds the point-query workload: anc over a parent tree of
// the given fanout and depth, every node pointing at its parent. A leaf
// has exactly depth ancestors, so a bound anc(leaf, Y) runs a small
// magic-seeded fixpoint whatever the size of the tree.
func ancTree(fanout, depth int) (src string, leaves int) {
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

// preparedAnc loads the fanout-4, depth-7 tree and prepares the bound
// anc form.
func preparedAnc(tb testing.TB) (*Prepared, int) {
	tb.Helper()
	src, leaves := ancTree(4, 7)
	sys, err := Load(src)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := sys.Prepare("anc(n7_0, Y)")
	if err != nil {
		tb.Fatal(err)
	}
	return p, leaves
}

// TestPreparedPointExecuteAllocs pins the fixed cost of a cached
// execute whose answer is seven rows: binding, fork, the magic-seeded
// fixpoint and rendering. Kernel state is pooled per compiled rule,
// delta relations are recycled across rounds and column indexes grow
// in O(rows), so what is left is mostly the answer and the per-run
// relations.
func TestPreparedPointExecuteAllocs(t *testing.T) {
	p, leaves := preparedAnc(t)
	i := 0
	run := func() {
		goal := fmt.Sprintf("anc(n7_%d, Y)", (i*7919)%leaves)
		i++
		rows, es, err := p.ExecuteStats(goal)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 7 || es.KernelCompiles != 0 {
			t.Fatalf("%s: %d rows, %d kernel compiles; want 7, 0", goal, len(rows), es.KernelCompiles)
		}
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("cached point execute: %.0f allocs/op", allocs)
	// 207 allocs/op measured. The race detector drops some sync.Pool
	// puts and reads 219–223. The ceiling leaves ~10% for that, not for
	// a re-prepare, per-execute statistics work or unpooled state.
	if allocs > 229 {
		t.Errorf("cached point execute: %.0f allocs/op, want <= 229", allocs)
	}
}

// TestPreparedConcurrentExecute runs one Prepared from 8 goroutines
// with distinct constants: pooled kernel states and shared compiled
// kernels must not leak rows between executions, so every answer
// equals the serial run of the same goal. The second input names the
// tree's nodes by compound terms n(Level, Index), so the bound
// constants sit inside a compound argument.
func TestPreparedConcurrentExecute(t *testing.T) {
	src, leaves := ancTree(4, 7)
	compound := regexp.MustCompile(`n(\d+)_(\d+)`).ReplaceAllString(src, "n($1, $2)")
	for _, in := range []struct{ name, src, leaf string }{
		{"atoms", src, "n7_%d"},
		{"compound", compound, "n(7, %d)"},
	} {
		t.Run(in.name, func(t *testing.T) {
			const workers, perWorker = 8, 12
			goal := func(w, k int) string {
				return fmt.Sprintf("anc("+in.leaf+", Y)", (w*perWorker+k)*131%leaves)
			}
			sys, err := Load(in.src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sys.Prepare(goal(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for w := 0; w < workers; w++ {
				for k := 0; k < perWorker; k++ {
					g := goal(w, k)
					rows, _, err := p.ExecuteStats(g)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) != 7 {
						t.Fatalf("%s: %d rows, want 7", g, len(rows))
					}
					want[g] = strings.Join(sortedRows(rows), ";")
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < perWorker; k++ {
						g := goal(w, k)
						rows, _, err := p.ExecuteStats(g)
						if err != nil {
							errs <- err
							return
						}
						if got := strings.Join(sortedRows(rows), ";"); got != want[g] {
							errs <- fmt.Errorf("%s: concurrent %s, serial %s", g, got, want[g])
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func BenchmarkPreparedPointExecute(b *testing.B) {
	p, leaves := preparedAnc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.ExecuteStats(fmt.Sprintf("anc(n7_%d, Y)", (i*7919)%leaves)); err != nil {
			b.Fatal(err)
		}
	}
}
