package ldl

// Tests for the replication-facing System API: follower apply mode
// (ApplyReplicated), read-only/promote, the WAL health snapshot, and
// the group-commit write path exercised through concurrent InsertFacts.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldl/internal/term"
	"ldl/internal/wal"
)

// shipBatch builds the wal.Batch an InsertFacts of durBatch(i) would
// log under the given epoch — the follower-side view of one shipped
// record.
func shipBatch(epoch uint64, i int) wal.Batch {
	return wal.Batch{Epoch: epoch, Rels: []wal.RelFacts{relFacts("par/2", 2, [][]term.Term{
		{term.Atom(fmt.Sprintf("x%d", i)), term.Atom(fmt.Sprintf("y%d", i))},
		{term.Atom(fmt.Sprintf("y%d", i)), term.Atom(fmt.Sprintf("z%d", i))},
	})}}
}

func TestApplyReplicatedFollowsLeaderEpochs(t *testing.T) {
	follower, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")

	// Batches publish under the leader's epoch numbers.
	for i, epoch := range []uint64{2, 3, 4} {
		if err := follower.ApplyReplicated(shipBatch(epoch, i)); err != nil {
			t.Fatalf("apply epoch %d: %v", epoch, err)
		}
		if follower.Epoch() != epoch {
			t.Fatalf("follower epoch = %d after applying %d", follower.Epoch(), epoch)
		}
	}
	checkPrefix(t, parTuples(follower), 3, 3)

	// Duplicate redelivery (reconnect replays) is a no-op, not an error.
	if err := follower.ApplyReplicated(shipBatch(3, 1)); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	if follower.Epoch() != 4 {
		t.Fatalf("duplicate apply moved the epoch to %d", follower.Epoch())
	}
	checkPrefix(t, parTuples(follower), 3, 3)

	// The applied facts serve queries — the whole point of a read replica.
	rows, err := follower.Query("anc(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("replica query returned %d rows, want 2", len(rows))
	}

	// A batch touching a derived predicate means the programs diverged:
	// refuse.
	bad := wal.Batch{Epoch: 9, Rels: []wal.RelFacts{relFacts("anc/2", 2,
		[][]term.Term{{term.Atom("a"), term.Atom("b")}})}}
	if err := follower.ApplyReplicated(bad); err == nil {
		t.Fatal("derived-predicate batch applied")
	}
}

// TestChangedClosesOnPublish: the publish broadcast fires on a leader
// commit and on a replicated apply, coalesces until asked for again, and
// stays open across an apply that publishes nothing (a duplicate).
func TestChangedClosesOnPublish(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	leader, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	ch := leader.Changed()
	if closed(ch) {
		t.Fatal("Changed closed before any publish")
	}
	if _, _, err := leader.InsertFacts("par(c1, c2)."); err != nil {
		t.Fatal(err)
	}
	next := leader.Changed()
	if !closed(ch) || closed(next) {
		t.Fatalf("after a commit: old closed=%v, new closed=%v; want true, false", closed(ch), closed(next))
	}

	follower, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")
	ch = follower.Changed()
	if err := follower.ApplyReplicated(shipBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("replicated apply did not close Changed")
	}
	ch = follower.Changed()
	if err := follower.ApplyReplicated(shipBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	if closed(ch) {
		t.Fatal("a duplicate apply published nothing but closed Changed")
	}
}

func TestReadOnlyRefusalAndPromote(t *testing.T) {
	follower, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")
	if ro, leader := follower.ReadOnly(); !ro || leader != "leader:1234" {
		t.Fatalf("ReadOnly() = %v, %q", ro, leader)
	}

	_, _, err = follower.InsertFacts(durBatch(0))
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertFacts on replica = %v, want ErrReadOnly", err)
	}
	var roe *ReadOnlyError
	if !errors.As(err, &roe) || roe.Leader != "leader:1234" {
		t.Fatalf("error carries leader %q, want leader:1234", roe.Leader)
	}

	// Catch the follower up, then promote: writes resume, numbered after
	// the last applied epoch.
	if err := follower.ApplyReplicated(shipBatch(5, 0)); err != nil {
		t.Fatal(err)
	}
	epoch, pterm, err := follower.Promote()
	if err != nil || epoch != 5 {
		t.Fatalf("Promote() = %d, %d, %v, want epoch 5", epoch, pterm, err)
	}
	if pterm != 2 {
		t.Fatalf("Promote() term = %d, want 2 (terms start at 1)", pterm)
	}
	if ro, _ := follower.ReadOnly(); ro {
		t.Fatal("still read-only after Promote")
	}
	_, epoch, err = follower.InsertFacts(durBatch(1))
	if err != nil || epoch != 6 {
		t.Fatalf("first write after promote: epoch=%d err=%v, want 6", epoch, err)
	}
	checkPrefix(t, parTuples(follower), 2, 2)
}

func TestDurableFollowerLogsAndRecovers(t *testing.T) {
	fs := wal.NewMemFS()
	follower, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")
	for i, epoch := range []uint64{2, 3, 4} {
		if err := follower.ApplyReplicated(shipBatch(epoch, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without Close: the follower's own WAL must have the applied
	// batches (write-ahead ordering holds on the replica too).
	reborn, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs.Crash(true)))
	if err != nil {
		t.Fatal(err)
	}
	if reborn.Epoch() != 4 {
		t.Fatalf("recovered follower at epoch %d, want 4", reborn.Epoch())
	}
	checkPrefix(t, parTuples(reborn), 3, 3)
}

// syncCounter wraps a wal.FS counting (and slowing) File.Sync — the
// observable group commit shrinks.
type syncCounter struct {
	wal.FS
	syncs atomic.Int64
}

func (s *syncCounter) OpenAppend(name string) (wal.File, int64, error) {
	f, size, err := s.FS.OpenAppend(name)
	if err != nil {
		return nil, 0, err
	}
	return &countedFile{File: f, fs: s}, size, nil
}

type countedFile struct {
	wal.File
	fs *syncCounter
}

func (f *countedFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(2 * time.Millisecond)
	return f.File.Sync()
}

func TestInsertFactsGroupCommit(t *testing.T) {
	mem := wal.NewMemFS()
	fs := &syncCounter{FS: mem}
	sys, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Epoch()
	boot := fs.syncs.Load()

	const writers, perWriter = 8, 8
	const batches = writers * perWriter
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := sys.InsertFacts(durBatch(w*perWriter + i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("InsertFacts: %v", err)
	}

	syncs := fs.syncs.Load() - boot
	t.Logf("%d concurrent batches, %d fsyncs", batches, syncs)
	if syncs > batches/2 {
		t.Errorf("group commit did not amortize: %d fsyncs for %d batches", syncs, batches)
	}
	if got := sys.Epoch(); got != base+batches {
		t.Errorf("published epoch = %d, want %d", got, base+batches)
	}
	checkPrefix(t, parTuples(sys), batches, batches)

	// Every acknowledged batch survives losing the page cache — Commit
	// really did fsync before InsertFacts returned.
	reborn, err := Load(durSrc, WithStorageDir("data"), withWALFS(mem.Crash(true)))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, parTuples(reborn), batches, batches)
}

func TestDurabilityStats(t *testing.T) {
	plain, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d := plain.Durability(); d.Durable || d.SegmentBytes != 0 {
		t.Fatalf("non-durable Durability() = %+v", d)
	}
	if _, _, ok := plain.WALAccess(); ok {
		t.Fatal("non-durable WALAccess ok")
	}

	mem := wal.NewMemFS()
	sys, err := Load(durSrc, WithStorageDir("data"), withWALFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts(durBatch(0)); err != nil {
		t.Fatal(err)
	}
	d := sys.Durability()
	if !d.Durable || d.SegmentBytes == 0 || d.Wedged || d.LastCheckpoint != 0 {
		t.Fatalf("after one insert: %+v", d)
	}
	if dir, fs, ok := sys.WALAccess(); !ok || dir != "data" || fs != wal.FS(mem) {
		t.Fatalf("WALAccess = %q, %v, %v", dir, fs, ok)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d := sys.Durability(); d.LastCheckpoint != sys.Epoch() {
		t.Fatalf("LastCheckpoint = %d, want %d", d.LastCheckpoint, sys.Epoch())
	}

	// A log failure wedges: the flag flips and writes fail, reads keep
	// working.
	mem.SetFailAt(1)
	if _, _, err := sys.InsertFacts(durBatch(1)); err == nil {
		t.Fatal("insert over failing log succeeded")
	}
	mem.SetFailAt(0)
	if d := sys.Durability(); !d.Wedged {
		t.Fatalf("after log failure: %+v", d)
	}
	if _, err := sys.Query("anc(seed_a, Y)"); err != nil {
		t.Fatalf("read on wedged system: %v", err)
	}
}

// TestTermFencing pins the System-level fencing invariant: once a term
// is observed, ApplyReplicated refuses any batch whose (authority) term
// is below it, counts the event, and leaves the epoch untouched.
func TestTermFencing(t *testing.T) {
	follower, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")

	// A term-2 batch adopts the term on the way in.
	b := shipBatch(2, 0)
	b.Term = 2
	if err := follower.ApplyReplicated(b); err != nil {
		t.Fatal(err)
	}
	if follower.Term() != 2 {
		t.Fatalf("Term() = %d after term-2 batch, want 2", follower.Term())
	}

	// A batch from the deposed term-1 leader is fenced with the typed
	// error, and nothing about the system moves.
	stale := shipBatch(3, 1)
	stale.Term = 1
	err = follower.ApplyReplicated(stale)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-term apply = %v, want ErrFenced", err)
	}
	var fe *FencedError
	if !errors.As(err, &fe) || fe.Local != 2 || fe.Stream != 1 {
		t.Fatalf("FencedError = %+v, want Local=2 Stream=1", fe)
	}
	if follower.Epoch() != 2 || follower.FencedEvents() != 1 {
		t.Fatalf("after fence: epoch=%d fenced=%d, want 2 and 1", follower.Epoch(), follower.FencedEvents())
	}

	// Term 0 means a pre-term stream: never fenced (upgrades keep working).
	legacy := shipBatch(3, 1)
	if err := follower.ApplyReplicated(legacy); err != nil {
		t.Fatalf("term-0 apply: %v", err)
	}
	if follower.Epoch() != 3 {
		t.Fatalf("epoch = %d after legacy batch, want 3", follower.Epoch())
	}
}

// TestObserveTermDeposesLeader: a writable leader shown a higher term
// latches read-only — it has provably been superseded — and counts the
// fencing event. Observing a lower or equal term changes nothing.
func TestObserveTermDeposesLeader(t *testing.T) {
	sys, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	if sys.ObserveTerm(1) { // own term is already 1
		t.Fatal("ObserveTerm(1) deposed a term-1 leader")
	}
	if !sys.ObserveTerm(3) {
		t.Fatal("ObserveTerm(3) did not report deposition")
	}
	if ro, _ := sys.ReadOnly(); !ro {
		t.Fatal("leader still writable after observing a higher term")
	}
	if sys.Term() != 3 || sys.FencedEvents() != 1 {
		t.Fatalf("after deposition: term=%d fenced=%d, want 3 and 1", sys.Term(), sys.FencedEvents())
	}
	if _, _, err := sys.InsertFacts(durBatch(0)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on deposed leader = %v, want ErrReadOnly", err)
	}
	// A replica observing higher terms stays a replica; no double count.
	if sys.ObserveTerm(4) {
		t.Fatal("ObserveTerm on a replica reported deposition")
	}
	if sys.Term() != 4 || sys.FencedEvents() != 1 {
		t.Fatalf("replica observation: term=%d fenced=%d, want 4 and 1", sys.Term(), sys.FencedEvents())
	}
}

// TestPromotePersistsTermAcrossCrash: Promote writes the term record
// ahead of accepting writes, so a crash-restart of the promoted node
// comes back in the new term (and stays fenced against the old leader).
func TestPromotePersistsTermAcrossCrash(t *testing.T) {
	fs := wal.NewMemFS()
	follower, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly("leader:1234")
	b := shipBatch(2, 0)
	b.Term = 1
	if err := follower.ApplyReplicated(b); err != nil {
		t.Fatal(err)
	}
	if _, pterm, err := follower.Promote(); err != nil || pterm != 2 {
		t.Fatalf("Promote() term = %d, %v, want 2", pterm, err)
	}
	if _, _, err := follower.InsertFacts(durBatch(1)); err != nil {
		t.Fatal(err)
	}

	// Crash without Close: recovery must land in term 2.
	reborn, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs.Crash(true)))
	if err != nil {
		t.Fatal(err)
	}
	if reborn.Term() != 2 {
		t.Fatalf("recovered term = %d, want 2", reborn.Term())
	}
	if reborn.Epoch() != 3 {
		t.Fatalf("recovered epoch = %d, want 3", reborn.Epoch())
	}
	// The old term-1 leader reappearing is fenced by the reborn node.
	ghost := shipBatch(4, 2)
	ghost.Term = 1
	reborn.SetReadOnly("")
	if err := reborn.ApplyReplicated(ghost); !errors.Is(err, ErrFenced) {
		t.Fatalf("ghost leader apply = %v, want ErrFenced", err)
	}
}
