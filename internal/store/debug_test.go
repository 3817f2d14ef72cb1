//go:build ldldebug

package store

import (
	"strings"
	"testing"

	"ldl/internal/term"
)

// TestAppendFromAssertsAbsent: under ldldebug the probe-free append
// panics when the row is already present — appending the same head row
// into its delta twice is the fault it exists to catch.
func TestAppendFromAssertsAbsent(t *testing.T) {
	head := NewRelation("h", 1)
	if _, err := head.Insert(Tuple{term.Atom("a")}); err != nil {
		t.Fatal(err)
	}
	delta := NewRelation("hΔ", 1)
	if err := delta.AppendFrom(head, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "already present") {
			t.Errorf("second AppendFrom of one row: recovered %q, want the ldldebug absence panic", r)
		}
	}()
	_ = delta.AppendFrom(head, 0)
}
