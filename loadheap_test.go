package ldl

// Live heap per loaded fact. The store keeps each fact once, as
// interned term-ID columns plus a row hash; the System keeps no parsed
// copy. This pins that row format by what it costs to hold.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestLoadHeapPerFact measures the live heap a second Load of 100 000
// e(nI, nI+1) facts holds after GC. The first Load warms the global
// intern table and is dropped, so the figure is what the stored rows,
// their dedup set and statistics cost, not the terms' first interning.
// Keeping a boxed Tuple per row beside the ID columns, or the parsed
// facts in the System, puts it well above the ceiling.
func TestLoadHeapPerFact(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 facts twice")
	}
	const n = 100_000
	var b strings.Builder
	b.WriteString("p(X, Y) <- e(X, Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(n%d, n%d).\n", i, i+1)
	}
	src := b.String()
	if _, err := Load(src); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFact := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(s)
	t.Logf("%.1f B/fact live after Load", perFact)
	if perFact > 80 {
		t.Errorf("Load holds %.1f B/fact of live heap, want ≤ 80", perFact)
	}
	if s.prog.Facts != nil {
		t.Errorf("System kept %d parsed facts after Load", len(s.prog.Facts))
	}
	if !slices.Contains(s.prog.PredTags(), "e/2") || !s.prog.HasFacts("e/2") {
		t.Errorf("program lost its fact tags: %v", s.prog.PredTags())
	}
	if got := s.snapshot().db.Relation("e/2").Len(); got != n {
		t.Errorf("e/2 holds %d rows, want %d", got, n)
	}
}
