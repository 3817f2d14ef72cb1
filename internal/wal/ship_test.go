package wal

// Shipping read-side tests: live tailing from any epoch inside the log,
// the published-epoch cap, waiting at a torn tail, and noticing a
// segment retired under the cursor. Planning — resume vs reseed from a
// manifest — is segment.PlanShip, tested there.

import (
	"errors"
	"testing"
)

// shipAll drains everything currently shippable for a follower at
// `from` whose records all survive in the log: the cursor starts at the
// oldest segment and ReadLive skips what the follower already has.
func shipAll(t *testing.T, fs FS, from, maxEpoch uint64) (got []Batch) {
	t.Helper()
	segs, err := Segments(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	cur := Cursor{Epoch: from}
	if len(segs) > 0 {
		cur.Base = segs[0]
	}
	if _, err := ReadLive(dir, fs, cur, maxEpoch, collectLive(&got)); err != nil {
		t.Fatalf("ReadLive: %v", err)
	}
	return got
}

func TestShipResumeFromSegments(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	for e := uint64(2); e <= 6; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh follower replays everything while the full log survives.
	got := shipAll(t, fs, 0, 100)
	if len(got) != 5 || got[0].Epoch != 2 || got[4].Epoch != 6 {
		t.Fatalf("fresh ship: epochs %v", epochsOf(got))
	}

	// A follower at epoch 4 resumes mid-segment: exactly 5 and 6, no
	// duplicates of what it already applied.
	got = shipAll(t, fs, 4, 100)
	if len(got) != 2 || got[0].Epoch != 5 || got[1].Epoch != 6 {
		t.Fatalf("resume ship: epochs %v", epochsOf(got))
	}

	// A follower already at the head gets nothing.
	if got := shipAll(t, fs, 6, 100); len(got) != 0 {
		t.Fatalf("caught-up follower shipped %v", epochsOf(got))
	}
}

func TestShipPublishedEpochCap(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	for e := uint64(2); e <= 5; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs 4 and 5 are appended but (per the cap) not yet published:
	// they must not ship.
	got := shipAll(t, fs, 0, 3)
	if len(got) != 2 || got[1].Epoch != 3 {
		t.Fatalf("capped ship delivered epochs %v, want [2 3]", epochsOf(got))
	}
	// Raising the cap releases them, resuming where the cursor stopped.
	got = shipAll(t, fs, 3, 5)
	if len(got) != 2 || got[0].Epoch != 4 || got[1].Epoch != 5 {
		t.Fatalf("post-publish ship delivered %v, want [4 5]", epochsOf(got))
	}
}

func TestShipRetiredUnderCursor(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	for e := uint64(2); e <= 4; e++ {
		if err := appendSync(l, mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver epoch 2 only, leaving the cursor mid-segment.
	cur, err := ReadLive(dir, fs, Cursor{}, 2, func([]byte) error { return nil })
	if err != nil || cur.Epoch != 2 {
		t.Fatalf("partial read: cur=%+v err=%v", cur, err)
	}
	// A checkpoint retires the segment under the cursor.
	if err := l.Rotate(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(4); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLive(dir, fs, cur, 100, func([]byte) error { return nil }); !errors.Is(err, ErrRetired) {
		t.Fatalf("read from retired segment = %v, want ErrRetired", err)
	}
}

func TestShipWaitsAtTornTail(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := mustOpen(t, fs, Options{})
	if err := appendSync(l, mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	// Simulate a frame caught mid-write: append half a record's bytes
	// directly to the active segment file.
	buf, err := AppendRecord(nil, mkBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	name := dir + "/" + segmentName(0)
	f, _, err := fs.OpenAppend(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(buf[:len(buf)/2])
	f.Close()

	var got []Batch
	cur, err := ReadLive(dir, fs, Cursor{}, 100, collectLive(&got))
	if err != nil {
		t.Fatalf("incomplete frame must mean wait, got %v", err)
	}
	if len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("shipped %v, want just epoch 2", epochsOf(got))
	}
	// The rest of the frame arrives; the same cursor picks it up.
	f, _, err = fs.OpenAppend(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(buf[len(buf)/2:])
	f.Close()
	if _, err := ReadLive(dir, fs, cur, 100, collectLive(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Epoch != 3 {
		t.Fatalf("after completion shipped %v, want [2 3]", epochsOf(got))
	}
}

func TestShipEmptyDir(t *testing.T) {
	fs := NewMemFS()
	fs.MkdirAll(dir)
	if cur, err := ReadLive(dir, fs, Cursor{}, 100, func([]byte) error { t.Fatal("emitted from empty dir"); return nil }); err != nil || cur != (Cursor{}) {
		t.Fatalf("ReadLive on empty dir: cur=%+v err=%v", cur, err)
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	b := mkBatch(7)
	buf, err := EncodeBatchPayload(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchPayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !batchEqual(got, b) {
		t.Fatalf("round trip changed the batch: %+v vs %+v", got, b)
	}
	if _, err := DecodeBatchPayload(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

func epochsOf(bs []Batch) []uint64 {
	out := make([]uint64, len(bs))
	for i, b := range bs {
		out[i] = b.Epoch
	}
	return out
}
