package repl

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ldl/internal/term"
	"ldl/internal/wal"
)

// TestShipForwardAllocs: the shipper forwards a logged record as the
// bytes the log holds, so reading it live and framing it onto the
// connection costs a fixed number of allocations, whatever its row
// count — nothing is decoded, interned or re-encoded.
func TestShipForwardAllocs(t *testing.T) {
	for _, rows := range []int{256, 1024} {
		fs := wal.NewMemFS()
		l, _, err := wal.Open(dir, wal.Options{FS: fs, Sync: wal.SyncNever}, func(wal.Batch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		r := wal.RelFacts{Tag: "kv/2", Arity: 2, Rows: rows, Cols: make([][]term.ID, 2)}
		for j := 0; j < rows; j++ {
			r.Cols[0] = append(r.Cols[0], term.Intern(term.Atom(fmt.Sprintf("k1_%d", j))))
			r.Cols[1] = append(r.Cols[1], term.Intern(term.Comp{Functor: "f", Args: []term.Term{term.Atom(fmt.Sprintf("v%d", j%16)), term.Int(int64(j))}}))
		}
		if err := appendSync(l, wal.Batch{Epoch: 2, Term: 1, Rels: []wal.RelFacts{r}}); err != nil {
			t.Fatal(err)
		}
		emit := func(p []byte) error { return writeFrame(io.Discard, kindBatch, p) }
		got := testing.AllocsPerRun(20, func() {
			if cur, err := wal.ReadLive(dir, fs, wal.Cursor{}, 2, emit); err != nil || cur.Epoch != 2 {
				t.Fatalf("ReadLive: cur=%+v err=%v", cur, err)
			}
		})
		// Measured 9 (10 under -race) at both sizes.
		if got > 11 {
			t.Errorf("ReadLive + forward of a %d-row record = %.0f allocations, want <= 11", rows, got)
		}
		l.Close()
	}
}

// TestFencedFrameInternsNothing: a follower fences a batch frame on its
// header, before decoding its rows, so a deposed leader's traffic never
// reaches the process-global intern table.
func TestFencedFrameInternsNothing(t *testing.T) {
	ld := newChaosLeader(t)
	ld.appendT(2)
	// Epoch 3 is written as raw bytes, the way a leader in another
	// process logs it: its atoms were never interned here.
	payload, err := wal.EncodeBatchPayload(nil, wal.Batch{Term: 1, Epoch: 3, Rels: mkBatch(3).Rels})
	if err != nil {
		t.Fatal(err)
	}
	rec, at := wal.OpenFrame(nil)
	rec = wal.CloseFrame(append(rec, bytes.ReplaceAll(payload, []byte("e3_"), []byte("n3_"))...), at)
	f, _, err := ld.fs.OpenAppend(dir + "/log-0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(rec)
	f.Close()
	ld.publish(3)

	// The follower hears of term 2 right after applying epoch 2, so the
	// term-1 frame of epoch 3 is fenced.
	local := &termMark{}
	local.observe(1)
	m := &prefixModel{t: t}
	fl := &Follower{
		Dial:    ld.dial,
		Applied: m.Applied,
		Apply: func(b wal.Batch) error {
			defer local.observe(2)
			return m.Apply(b)
		},
		Term:             local.load,
		ObserveTerm:      local.observe,
		HeartbeatTimeout: 60 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
	}
	ctx, cancel := newTestContext(t)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); fl.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for fl.Stats().Fenced == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	ld.closeAll()
	done.Wait()
	if st := fl.Stats(); st.Fenced == 0 || m.Applied() != 2 {
		t.Fatalf("stale frame not fenced: applied %d, stats %+v", m.Applied(), st)
	}
	for _, a := range []string{"n3_a", "n3_b"} {
		if _, ok := term.TryLookupID(term.Atom(a)); ok {
			t.Errorf("fenced frame interned %s", a)
		}
	}
}
