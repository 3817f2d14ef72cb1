package wal

// Damage recovery tests: directories a crash left half-created, and a
// directory holding a checkpoint of the retired snapshot format. Single
// faults in a live log are covered by wal_test.go and the crash matrix.

import (
	"strings"
	"testing"
)

// TestSnapshotFileRefused: recovery, Open and the shipping read side
// refuse a directory holding a snapshot checkpoint, naming the file —
// replaying the log without it would silently drop the facts it holds.
func TestSnapshotFileRefused(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	if err := appendSync(l, mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	const snap = "snapshot-0000000000000002"
	f, err := fs.Create(join(dir, snap))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	nop := func(Batch) error { return nil }
	_, rerr := Recover(dir, fs, nop)
	_, _, oerr := Open(dir, Options{FS: fs}, nop)
	_, lerr := ReadLive(dir, fs, Cursor{}, 100, func([]byte) error { return nil })
	for what, err := range map[string]error{"Recover": rerr, "Open": oerr, "ReadLive": lerr} {
		if err == nil || !strings.Contains(err.Error(), snap) {
			t.Errorf("%s over a snapshot checkpoint = %v, want an error naming %s", what, err, snap)
		}
	}
}

func TestRecoverPartiallyCreatedDir(t *testing.T) {
	t.Run("missing dir", func(t *testing.T) {
		rep, err := Recover(dir, NewMemFS(), func(Batch) error { t.Fatal("applied from nothing"); return nil })
		if err != nil || rep.Epoch != 0 || rep.RecordsReplayed != 0 {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
	})

	t.Run("empty dir", func(t *testing.T) {
		fs := NewMemFS()
		fs.MkdirAll(dir)
		rep, err := Recover(dir, fs, func(Batch) error { t.Fatal("applied from nothing"); return nil })
		if err != nil || rep.Epoch != 0 {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
	})

	t.Run("zero-length first segment", func(t *testing.T) {
		// Crash after Open created log-0 but before any record landed.
		fs := NewMemFS()
		fs.MkdirAll(dir)
		f, err := fs.Create(join(dir, segmentName(0)))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs.SyncDir(dir)
		rep, err := Recover(dir, fs, func(Batch) error { t.Fatal("applied from empty segment"); return nil })
		if err != nil || rep.Epoch != 0 || rep.BytesDropped != 0 {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
		// The dir is still usable: reopen, append, recover.
		l, _, _ := mustOpen(t, fs, Options{})
		if err := appendSync(l, mkBatch(2)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		var got []Batch
		if _, err := Recover(dir, fs, collect(&got)); err != nil || len(got) != 1 {
			t.Fatalf("after resume: err=%v batches=%d", err, len(got))
		}
	})

	t.Run("torn first record ever", func(t *testing.T) {
		// Crash mid-write of the very first record: no base, no valid
		// prefix at all. Recovery must come up empty (not error), and
		// Open must truncate and carry on.
		fs := NewMemFS()
		fs.MkdirAll(dir)
		buf, err := AppendRecord(nil, mkBatch(2))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(join(dir, segmentName(0)))
		if err != nil {
			t.Fatal(err)
		}
		f.Write(buf[:len(buf)-3])
		f.Sync()
		f.Close()
		fs.SyncDir(dir)

		rep, err := Recover(dir, fs, func(Batch) error { t.Fatal("applied a torn record"); return nil })
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if rep.Epoch != 0 || rep.BytesDropped != int64(len(buf)-3) {
			t.Errorf("rep=%+v, want 0 epochs and %d dropped", rep, len(buf)-3)
		}
		l, _, _ := mustOpen(t, fs, Options{})
		if err := appendSync(l, mkBatch(2)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		var got []Batch
		if _, err := Recover(dir, fs, collect(&got)); err != nil || len(got) != 1 || got[0].Epoch != 2 {
			t.Fatalf("after resume: err=%v got=%v", err, epochsOf(got))
		}
	})
}
