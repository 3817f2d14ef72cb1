package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ldl/internal/term"
)

const dir = "data"

// mkBatch builds a single-relation batch: epoch e inserts tuples
// (e_i, i) into par/2 — distinct per epoch, so prefix states are
// distinguishable.
func mkBatch(e uint64) Batch {
	tuples := [][]term.Term{
		{term.Atom(fmt.Sprintf("e%d_a", e)), term.Int(int64(e))},
		{term.Atom(fmt.Sprintf("e%d_b", e)), term.Int(int64(e))},
	}
	return Batch{Epoch: e, Rels: []RelFacts{relFacts("par/2", 2, tuples)}}
}

// relFacts interns boxed test rows into a relation's ID columns.
func relFacts(tag string, arity int, rows [][]term.Term) RelFacts {
	r := RelFacts{Tag: tag, Arity: arity, Rows: len(rows), Cols: make([][]term.ID, arity)}
	for _, row := range rows {
		for c, t := range row {
			r.Cols[c] = append(r.Cols[c], term.Intern(t))
		}
	}
	return r
}

// rowsOf boxes a relation's ID columns back into rows.
func rowsOf(r RelFacts) [][]term.Term {
	rows := make([][]term.Term, r.Rows)
	for i := range rows {
		for _, col := range r.Cols {
			rows[i] = append(rows[i], term.InternedTerm(col[i]))
		}
	}
	return rows
}

// appendSync appends b and commits it under the log's fsync policy.
func appendSync(l *Log, b Batch) error {
	lsn, err := l.AppendCommit(b)
	if err != nil {
		return err
	}
	return l.Commit(lsn)
}

// collect returns an apply func appending into dst.
func collect(dst *[]Batch) func(Batch) error {
	return func(b Batch) error {
		*dst = append(*dst, b)
		return nil
	}
}

// collectLive returns a ReadLive emit func decoding each shipped
// payload into dst.
func collectLive(dst *[]Batch) func([]byte) error {
	return func(p []byte) error {
		b, err := DecodeBatchPayload(p)
		if err == nil {
			*dst = append(*dst, b)
		}
		return err
	}
}

func mustOpen(t *testing.T, fs FS, opts Options) (*Log, *RecoveryReport, []Batch) {
	t.Helper()
	opts.FS = fs
	var got []Batch
	l, rep, err := Open(dir, opts, collect(&got))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rep, got
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, rep, _ := mustOpen(t, fs, Options{})
	if rep.Epoch != 0 || rep.RecordsReplayed != 0 {
		t.Fatalf("fresh dir report = %+v", rep)
	}
	var want []Batch
	for e := uint64(2); e <= 6; e++ {
		b := mkBatch(e)
		if err := appendSync(l, b); err != nil {
			t.Fatalf("appendSync(%d): %v", e, err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got []Batch
	rep2, err := Recover(dir, fs, collect(&got))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep2.Epoch != 6 || rep2.RecordsReplayed != 5 || rep2.BytesDropped != 0 {
		t.Errorf("report = %+v, want epoch 6, 5 records, clean tail", rep2)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if !batchEqual(got[i], want[i]) {
			t.Errorf("batch %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}

	// Reopen and continue: the next appends extend the same history.
	l2, rep3, replayed := mustOpen(t, fs, Options{})
	if rep3.Epoch != 6 || len(replayed) != 5 {
		t.Fatalf("reopen report = %+v (%d batches)", rep3, len(replayed))
	}
	if err := appendSync(l2, mkBatch(7)); err != nil {
		t.Fatalf("appendSync after reopen: %v", err)
	}
	l2.Close()
	got = nil
	rep4, err := Recover(dir, fs, collect(&got))
	if err != nil || rep4.Epoch != 7 || len(got) != 6 {
		t.Fatalf("after reopen+append: rep=%+v err=%v batches=%d", rep4, err, len(got))
	}
}

func TestCheckpointRetiresLogPrefix(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	for e := uint64(2); e <= 4; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(4); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	// The caller has committed the state at 4 outside the log (a segment
	// manifest); Retire drops the log prefix it covers.
	if err := l.Retire(4); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	// The pre-checkpoint segment is gone; only log-4 remains.
	names, _ := fs.List(dir)
	wantNames := []string{segmentName(4)}
	if fmt.Sprint(names) != fmt.Sprint(wantNames) {
		t.Errorf("dir after checkpoint = %v, want %v", names, wantNames)
	}
	if l.LastCheckpoint() != 4 {
		t.Errorf("LastCheckpoint = %d, want 4", l.LastCheckpoint())
	}
	// Two more batches after the checkpoint.
	for e := uint64(5); e <= 6; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, rep, got := mustOpen(t, fs, Options{BaseEpoch: 4})
	defer l2.Close()
	if rep.CheckpointEpoch != 4 || l2.LastCheckpoint() != 4 {
		t.Errorf("checkpoint part of report = %+v (LastCheckpoint %d)", rep, l2.LastCheckpoint())
	}
	if rep.Epoch != 6 || rep.RecordsReplayed != 2 {
		t.Errorf("replay part of report = %+v", rep)
	}
	// Only the records past the base replay: epochs 5, 6.
	if len(got) != 2 || got[0].Epoch != 5 || got[1].Epoch != 6 {
		t.Errorf("recovered sequence wrong: %v", epochsOf(got))
	}
}

func TestTornTailTolerated(t *testing.T) {
	// Build a clean two-record log, then cut the final record at every
	// byte boundary: recovery must always yield exactly the first
	// record and report the dropped bytes.
	base := NewMemFS()
	l, _, _ := mustOpen(t, base, Options{})
	if err := appendSync(l, mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	seg := join(dir, segmentName(0))
	clean, _ := base.ReadFile(seg)
	first := len(clean)
	if err := appendSync(l, mkBatch(3)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, _ := base.ReadFile(seg)

	for cut := first; cut < len(full); cut++ {
		fs := NewMemFS()
		fs.MkdirAll(dir)
		f, _ := fs.Create(seg)
		f.Write(full[:cut])
		f.Sync()
		f.Close()
		fs.SyncDir(dir)

		var got []Batch
		rep, err := Recover(dir, fs, collect(&got))
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		if len(got) != 1 || got[0].Epoch != 2 {
			t.Fatalf("cut %d: recovered %+v, want just epoch 2", cut, got)
		}
		if rep.BytesDropped != int64(cut-first) || (cut > first && rep.TornSegment == "") {
			t.Errorf("cut %d: report %+v", cut, rep)
		}

		// Open must truncate the tail and resume appending cleanly.
		l2, _, _ := mustOpen(t, fs, Options{})
		if err := appendSync(l2, mkBatch(3)); err != nil {
			t.Fatalf("cut %d: append after torn recovery: %v", cut, err)
		}
		l2.Close()
		got = nil
		if _, err := Recover(dir, fs, collect(&got)); err != nil || len(got) != 2 {
			t.Fatalf("cut %d: after resume: %v, %d batches", cut, err, len(got))
		}
	}
}

func TestMidLogCorruptionIsHardError(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	if err := appendSync(l, mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	seg := join(dir, segmentName(0))
	firstLen := func() int { b, _ := fs.ReadFile(seg); return len(b) }()
	for e := uint64(3); e <= 5; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a payload byte inside the FIRST record: records follow it, so
	// this is interior damage, not a tail.
	data, _ := fs.ReadFile(seg)
	data[frameHeader+2] ^= 0x40
	f, _ := fs.Create(seg)
	f.Write(data)
	f.Sync()
	f.Close()
	fs.SyncDir(dir)

	_, err := Recover(dir, fs, func(Batch) error { return nil })
	if !IsCorrupt(err) {
		t.Fatalf("Recover after mid-log bit flip = %v, want CorruptError", err)
	}
	var ce *CorruptError
	if errors.As(err, &ce) && ce.Offset != 0 {
		t.Errorf("corruption offset = %d, want 0", ce.Offset)
	}
	_ = firstLen

	// Open must refuse too, not silently truncate acknowledged data.
	if _, _, err := Open(dir, Options{FS: fs}, func(Batch) error { return nil }); !IsCorrupt(err) {
		t.Fatalf("Open after mid-log bit flip = %v, want CorruptError", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("never loses unsynced on crash", func(t *testing.T) {
		fs := NewMemFS()
		l, _, _ := mustOpen(t, fs, Options{Sync: SyncNever})
		for e := uint64(2); e <= 4; e++ {
			if err := appendSync(l, mkBatch(e)); err != nil {
				t.Fatal(err)
			}
		}
		// No Close: simulate a crash that drops the page cache.
		var got []Batch
		if _, err := Recover(dir, fs.Crash(true), collect(&got)); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(got) != 0 {
			t.Errorf("SyncNever survived a page-cache drop: %d batches", len(got))
		}
		// A process-only crash (kernel flushes) keeps everything.
		got = nil
		if _, err := Recover(dir, fs.Crash(false), collect(&got)); err != nil || len(got) != 3 {
			t.Errorf("process crash: err=%v batches=%d, want 3", err, len(got))
		}
	})

	t.Run("always survives any crash", func(t *testing.T) {
		fs := NewMemFS()
		l, _, _ := mustOpen(t, fs, Options{Sync: SyncAlways})
		for e := uint64(2); e <= 4; e++ {
			if err := appendSync(l, mkBatch(e)); err != nil {
				t.Fatal(err)
			}
		}
		var got []Batch
		if _, err := Recover(dir, fs.Crash(true), collect(&got)); err != nil || len(got) != 3 {
			t.Errorf("SyncAlways: err=%v batches=%d, want 3", err, len(got))
		}
	})

	t.Run("interval syncs on cadence", func(t *testing.T) {
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		fs := NewMemFS()
		l, _, _ := mustOpen(t, fs, Options{Sync: SyncInterval, Interval: time.Second, Now: clock})
		if err := appendSync(l, mkBatch(2)); err != nil { // within interval: not synced
			t.Fatal(err)
		}
		var got []Batch
		if _, err := Recover(dir, fs.Crash(true), collect(&got)); err != nil || len(got) != 0 {
			t.Errorf("within interval: err=%v batches=%d, want 0", err, len(got))
		}
		now = now.Add(2 * time.Second)
		if err := appendSync(l, mkBatch(3)); err != nil { // interval elapsed: syncs
			t.Fatal(err)
		}
		got = nil
		if _, err := Recover(dir, fs.Crash(true), collect(&got)); err != nil || len(got) != 2 {
			t.Errorf("after interval: err=%v batches=%d, want 2", err, len(got))
		}
	})
}

func TestAppendFailureWedgesLog(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	if err := appendSync(l, mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	fs.SetFailAt(1)
	err := appendSync(l, mkBatch(3))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("appendSync with injected fault = %v", err)
	}
	fs.SetFailAt(0) // fault cleared, but the log must stay wedged
	if err2 := appendSync(l, mkBatch(4)); !errors.Is(err2, ErrInjected) {
		t.Fatalf("appendSync after wedge = %v, want the latched error", err2)
	}
	if l.Wedged() == nil {
		t.Error("Wedged() = nil after failure")
	}
	// The durable prefix is still perfectly recoverable.
	var got []Batch
	if _, err := Recover(dir, fs.Crash(true), collect(&got)); err != nil || len(got) != 1 {
		t.Fatalf("recover after wedge: err=%v batches=%d, want 1", err, len(got))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncAlways.String() != "always" || SyncInterval.String() != "interval" || SyncNever.String() != "never" {
		t.Error("SyncPolicy.String round-trip broken")
	}
}

func TestRecordLimits(t *testing.T) {
	// A frame declaring a payload beyond the limit is rejected without
	// allocating it.
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], maxRecordSize+1)
	if _, _, err := ReadRecord(hdr[:]); err == nil || errors.Is(err, errShortFrame) {
		t.Errorf("oversized declared length: err=%v, want hard decode error", err)
	}
	// Rows the columns do not hold are rejected at encode time with an
	// error, not a panic.
	bad := mkBatch(2)
	bad.Rels[0].Rows++
	if _, err := AppendRecord(nil, bad); err == nil || !strings.Contains(err.Error(), "column of 2 rows, want 3") {
		t.Errorf("encoding a short column: err=%v", err)
	}
}
