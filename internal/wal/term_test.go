package wal

// Leader-term persistence: RecTerm records restore the term high-water
// mark at recovery, survive checkpoints (the checkpointer re-appends
// the mark after rotating, so retiring the segments that held the term
// records loses nothing), and are never applied as facts.

import "testing"

func TestTermRecordRecovered(t *testing.T) {
	fs := NewMemFS()
	l, rep, _ := mustOpen(t, fs, Options{})
	if rep.Term != 0 {
		t.Fatalf("fresh dir term = %d, want 0", rep.Term)
	}
	if err := appendSync(l, mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTerm(2, 2); err != nil {
		t.Fatalf("AppendTerm: %v", err)
	}
	b3 := mkBatch(3)
	b3.Term = 2
	if err := appendSync(l, b3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Batch
	rep2, err := Recover(dir, fs, collect(&got))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep2.Term != 2 || rep2.TermRecords != 1 {
		t.Fatalf("report term=%d termRecords=%d, want 2/1", rep2.Term, rep2.TermRecords)
	}
	if rep2.Epoch != 3 || rep2.RecordsReplayed != 2 {
		t.Fatalf("report = %+v, want epoch 3 with 2 fact records", rep2)
	}
	for _, b := range got {
		if b.kind() == RecTerm {
			t.Fatalf("term record leaked into apply: %+v", b)
		}
	}
}

func TestTermSurvivesCheckpointRetirement(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	for e := uint64(2); e <= 4; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendTerm(5, 4); err != nil {
		t.Fatal(err)
	}
	// Checkpoint at the head: the segments holding the term record are
	// retired, so the mark is re-anchored in the fresh segment first —
	// the order the storage tier's checkpoint uses.
	if err := l.Rotate(4); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTerm(5, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep, _ := mustOpen(t, fs, Options{BaseEpoch: 4})
	if rep.Term != 5 {
		t.Fatalf("recovered term = %d, want 5 (from the re-anchored record)", rep.Term)
	}
	if rep.CheckpointEpoch != 4 {
		t.Fatalf("checkpoint epoch = %d, want 4", rep.CheckpointEpoch)
	}
	l2.Close()
}

func TestTermRecordRoundTrip(t *testing.T) {
	b := Batch{Kind: RecTerm, Term: 9, Epoch: 41}
	enc, err := AppendRecord(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadRecord(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("ReadRecord: %v (consumed %d of %d)", err, n, len(enc))
	}
	if !batchEqual(b, got) {
		t.Fatalf("round trip: %+v vs %+v", b, got)
	}
	if _, err := AppendRecord(nil, Batch{Kind: RecTerm, Term: 1, Epoch: 1, Rels: mkBatch(1).Rels}); err == nil {
		t.Fatal("term record with relations must not encode")
	}
}
