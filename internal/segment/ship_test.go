package segment

// Ship planning tests: a follower whose records survive in the log
// resumes from them; one whose records were retired by a flush re-seeds
// from the newest manifest's rows and then tails the log; retired
// records with no manifest to cover them are refused.

import (
	"errors"
	"fmt"
	"testing"

	"ldl/internal/term"
	"ldl/internal/wal"
)

const shipDir = "data"

// shipBatch is the leader's batch for epoch e: two distinct par/2 rows.
func shipBatch(e uint64) wal.Batch {
	a, b, n := term.Intern(term.Atom(fmt.Sprintf("e%d_a", e))), term.Intern(term.Atom(fmt.Sprintf("e%d_b", e))), term.Intern(term.Int(int64(e)))
	return wal.Batch{Epoch: e, Rels: []wal.RelFacts{{Tag: "par/2", Arity: 2, Rows: 2, Cols: [][]term.ID{{a, b}, {n, n}}}}}
}

// shipLeader opens a log on fs and appends the batches for epochs
// [2, upTo].
func shipLeader(t *testing.T, fs wal.FS, upTo uint64) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(shipDir, wal.Options{FS: fs}, func(wal.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	appendEpochs(t, l, 2, upTo)
	return l
}

func appendEpochs(t *testing.T, l *wal.Log, from, to uint64) {
	t.Helper()
	for e := from; e <= to; e++ {
		lsn, err := l.AppendCommit(shipBatch(e))
		if err == nil {
			err = l.Commit(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// flush is the storage tier's checkpoint at e in miniature: rotate,
// write every row of epochs [2, e] as one segment, commit the manifest,
// retire the covered log prefix, sweep what the manifest dropped.
func flush(t *testing.T, fs wal.FS, l *wal.Log, e uint64) {
	t.Helper()
	if err := l.Rotate(e); err != nil {
		t.Fatal(err)
	}
	cols := make([][]term.ID, 2)
	for i := uint64(2); i <= e; i++ {
		for c, col := range shipBatch(i).Rels[0].Cols {
			cols[c] = append(cols[c], col...)
		}
	}
	name, rows := SegName(e, "par/2", 0), len(cols[0])
	if err := Write(fs, shipDir, name, "par/2", 2, cols, rows); err != nil {
		t.Fatal(err)
	}
	man := &Manifest{Epoch: e, Rels: []RelEntry{{Tag: "par/2", Arity: 2, Rows: rows, Segments: []string{name}}}}
	if err := WriteManifest(fs, shipDir, man); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(e); err != nil {
		t.Fatal(err)
	}
	Sweep(fs, shipDir, man)
}

// shipAll drains everything currently shippable for a follower at
// `from`, re-planning on retirement, and returns the delivered batches
// (seeds included) and the number of seeds.
func shipAll(t *testing.T, fs wal.FS, from uint64) (got []wal.Batch, seeds int) {
	t.Helper()
	plan, err := PlanShip(shipDir, fs, from)
	if err != nil {
		t.Fatalf("PlanShip(%d): %v", from, err)
	}
	for {
		if plan.Seed != nil {
			got = append(got, *plan.Seed)
			seeds++
		}
		cur, err := wal.ReadLive(shipDir, fs, plan.Cursor, 100, func(p []byte) error {
			b, err := wal.DecodeBatchPayload(p)
			got = append(got, b)
			return err
		})
		if errors.Is(err, wal.ErrRetired) {
			if plan, err = PlanShip(shipDir, fs, cur.Epoch); err != nil {
				t.Fatalf("re-plan after retire: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ReadLive: %v", err)
		}
		return got, seeds
	}
}

func epochsOf(bs []wal.Batch) []uint64 {
	out := make([]uint64, len(bs))
	for i, b := range bs {
		out[i] = b.Epoch
	}
	return out
}

func TestShipReseedAfterCheckpointRetire(t *testing.T) {
	fs := wal.NewMemFS()
	l := shipLeader(t, fs, 5)
	// The flush at 5 retires the only segment holding 2..5.
	flush(t, fs, l, 5)
	appendEpochs(t, l, 6, 7)

	// A follower at epoch 3 lost its incremental path (records 4..5
	// retired): it must reseed from the manifest, then tail 6..7.
	got, seeds := shipAll(t, fs, 3)
	if seeds != 1 {
		t.Fatalf("want exactly one seed, got %d (epochs %v)", seeds, epochsOf(got))
	}
	if got[0].Epoch != 5 || got[0].Tuples() != 8 {
		t.Fatalf("seed = epoch %d with %d tuples, want manifest@5 with 8", got[0].Epoch, got[0].Tuples())
	}
	if len(got) != 3 || got[1].Epoch != 6 || got[2].Epoch != 7 {
		t.Fatalf("post-seed tail = %v, want [6 7]", epochsOf(got[1:]))
	}

	// A follower at epoch 6 still has its path (segment log-5 holds
	// 6..7): resume, no seed.
	got, seeds = shipAll(t, fs, 6)
	if seeds != 0 || len(got) != 1 || got[0].Epoch != 7 {
		t.Fatalf("resume past checkpoint: %d seeds, epochs %v", seeds, epochsOf(got))
	}
}

func TestShipRetiredUnderCursor(t *testing.T) {
	fs := wal.NewMemFS()
	l := shipLeader(t, fs, 4)
	plan, err := PlanShip(shipDir, fs, 0)
	if err != nil || plan.Seed != nil {
		t.Fatalf("fresh follower over a full log: plan %+v, err %v; want a plain resume", plan, err)
	}
	// Deliver epoch 2 only, leaving the cursor mid-segment.
	cur, err := wal.ReadLive(shipDir, fs, plan.Cursor, 2, func([]byte) error { return nil })
	if err != nil || cur.Epoch != 2 {
		t.Fatalf("partial read: cur=%+v err=%v", cur, err)
	}
	// A flush retires the segment under the cursor.
	flush(t, fs, l, 4)
	if _, err := wal.ReadLive(shipDir, fs, cur, 100, func([]byte) error { return nil }); !errors.Is(err, wal.ErrRetired) {
		t.Fatalf("read from retired segment = %v, want ErrRetired", err)
	}
	// Re-plan from the cursor's epoch reseeds and converges.
	got, seeds := shipAll(t, fs, cur.Epoch)
	if seeds != 1 || len(got) != 1 || got[0].Epoch != 4 || got[0].Tuples() != 6 {
		t.Fatalf("recover from retire: %d seeds, epochs %v", seeds, epochsOf(got))
	}
}

func TestShipEmptyDir(t *testing.T) {
	fs := wal.NewMemFS()
	fs.MkdirAll(shipDir)
	plan, err := PlanShip(shipDir, fs, 0)
	if err != nil {
		t.Fatalf("PlanShip on empty dir: %v", err)
	}
	if plan.Seed != nil || plan.Cursor != (wal.Cursor{}) {
		t.Fatalf("empty dir planned %+v, want no seed and a zero cursor", plan)
	}
}

// TestShipRetiredWithoutManifest: log records beyond the follower were
// retired but no manifest covers them — acknowledged history is
// unreachable, and planning must refuse rather than ship a gap.
func TestShipRetiredWithoutManifest(t *testing.T) {
	fs := wal.NewMemFS()
	l := shipLeader(t, fs, 4)
	if err := l.Rotate(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(4); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanShip(shipDir, fs, 0); !wal.IsCorrupt(err) {
		t.Fatalf("PlanShip over retired records with no manifest = %v, want CorruptError", err)
	}
}
