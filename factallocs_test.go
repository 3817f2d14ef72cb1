//go:build !ldldebug

package ldl

// The fact path's costs. A fact is interned once, by factBatch on a
// leader or by the log decoder on a follower, and travels as ID columns
// from there: into the store (one InsertRows per relation), into the
// log, and into a seed. The allocation ceilings below are the measured
// counts plus 10%, capped at the counts of the boxed-tuple path this
// replaced; race builds measure the same. The ldldebug build re-decodes
// every record it appends, so these hold for the release build only.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ldl/internal/segment"
	"ldl/internal/wal"
)

const factPathProgram = "has(K, V) <- kv(K, V).\n"

// factPathBatch is the i-th 256-fact batch kv(k<i>_<j>, f(v<j%16>, j)).
func factPathBatch(i int) string {
	var b strings.Builder
	for j := 0; j < 256; j++ {
		fmt.Fprintf(&b, "kv(k%d_%d, f(v%d, %d)).\n", i, j, j%16, j)
	}
	return b.String()
}

// factPathLeader loads a durable System on an in-memory filesystem,
// with fsync and automatic checkpoints off.
func factPathLeader(t *testing.T) (*System, *wal.MemFS) {
	t.Helper()
	fs := wal.NewMemFS()
	s, err := Load(factPathProgram, WithStorageDir("data"), withWALFS(fs), WithFsyncPolicy(FsyncNever, 0), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	return s, fs
}

func TestDurableInsertFactsAllocs(t *testing.T) {
	s, _ := factPathLeader(t)
	srcs := make([]string, 21)
	for i := range srcs {
		srcs[i] = factPathBatch(1000 + i)
	}
	n := 0
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := s.InsertFacts(srcs[n]); err != nil {
			t.Fatal(err)
		}
		n++
	})
	// Measured 4 813; the boxed-tuple path took 5 061.
	if got > 5026 {
		t.Errorf("durable InsertFacts of 256 facts = %.0f allocations, want <= 5026", got)
	}
}

func TestDurableFollowerApplyAllocs(t *testing.T) {
	leader, fs := factPathLeader(t)
	for i := 0; i < 21; i++ {
		if _, _, err := leader.InsertFacts(factPathBatch(2000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	var payloads [][]byte
	if _, err := wal.ReadLive("data", fs, wal.Cursor{}, leader.Epoch(), func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	follower, _ := factPathLeader(t)
	follower.SetReadOnly("leader:0")
	n := 0
	got := testing.AllocsPerRun(20, func() {
		b, err := wal.DecodeBatchPayload(payloads[n])
		if err == nil {
			err = follower.ApplyReplicated(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	})
	// Measured 1 907; the boxed-tuple path took 2 162.
	if got > 2098 {
		t.Errorf("follower decode + apply of 256 facts = %.0f allocations, want <= 2098", got)
	}
}

// TestDurablePlanShipSeedAllocs: a seed is its segments' ID columns,
// concatenated; no row is boxed on the way. What is left per row is
// re-interning the segment dictionaries.
func TestDurablePlanShipSeedAllocs(t *testing.T) {
	// Measured 6 185 and 21 545; the boxed-tuple path took 8 745 and
	// 31 785, one more per row.
	for _, tc := range []struct {
		batches int
		limit   float64
	}{{10, 6804}, {40, 23700}} {
		s, fs := factPathLeader(t)
		for i := 0; i < tc.batches; i++ {
			if _, _, err := s.InsertFacts(factPathBatch(3000*tc.batches + i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rows := float64(tc.batches * 256)
		got := testing.AllocsPerRun(5, func() {
			plan, err := segment.PlanShip("data", fs, 0)
			if err == nil && plan.Seed == nil {
				err = errors.New("no seed")
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.limit {
			t.Errorf("PlanShip seed of %.0f rows = %.0f allocations (%.2f per row), want <= %.0f", rows, got, got/rows, tc.limit)
		}
	}
}
