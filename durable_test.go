package ldl

// System-level durability tests: the write-ahead-log glue in durable.go
// exercised through the public API, with the wal.MemFS fault injector as
// the filesystem. The wal package's own crash matrix proves the log's
// prefix property; these tests prove the *System* keeps its side of the
// contract — log before publish, recover on Load, checkpoint without
// losing anything, and zero footprint when durability is off.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldl/internal/wal"
)

const durSrc = `
par(seed_a, seed_b).
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
`

// durBatch renders the InsertFacts source for batch i; each batch is
// two distinct tuples.
func durBatch(i int) string {
	return fmt.Sprintf("par(x%d, y%d). par(y%d, z%d).", i, i, i, i)
}

// parTuples renders the current par/2 extension as a set.
func parTuples(s *System) map[string]bool {
	out := map[string]bool{}
	r := s.snapshot().db.Relation("par/2")
	if r == nil {
		return out
	}
	for _, t := range r.Lookup(0, nil) {
		out[fmt.Sprintf("%v,%v", t[0], t[1])] = true
	}
	return out
}

// checkPrefix verifies that got is the base facts plus exactly the
// first k insert batches for some k in [min, max], returning k.
func checkPrefix(t *testing.T, got map[string]bool, min, max int) int {
	t.Helper()
	if !got["seed_a,seed_b"] {
		t.Fatalf("base fact missing: %v", got)
	}
	k := 0
	for ; k < max; k++ {
		if !got[fmt.Sprintf("x%d,y%d", k, k)] {
			break
		}
		if !got[fmt.Sprintf("y%d,z%d", k, k)] {
			t.Fatalf("batch %d recovered only half: %v", k, got)
		}
	}
	// Nothing beyond the prefix.
	if want := 1 + 2*k; len(got) != want {
		t.Fatalf("recovered %d tuples, want %d (prefix %d): %v", len(got), want, k, got)
	}
	if k < min {
		t.Fatalf("recovered prefix %d < %d acknowledged batches", k, min)
	}
	return k
}

func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, err := Load(durSrc, WithStorageDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep := sys.Recovery(); rep == nil || rep.RecordsReplayed != 0 {
		t.Fatalf("fresh dir recovery = %+v", rep)
	}
	want, err := sys.Query("anc(seed_a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	want2, err := sys.Query("anc(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	epoch := sys.Epoch()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same program source, same directory.
	sys2, err := Load(durSrc, WithStorageDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	rep := sys2.Recovery()
	if rep == nil || rep.Epoch != epoch {
		t.Fatalf("recovery = %+v, want epoch %d", rep, epoch)
	}
	// Close checkpointed, so the restart attaches the manifest, not the log.
	if rep.CheckpointEpoch != epoch || rep.RecordsReplayed != 0 {
		t.Errorf("restart after clean Close should load from checkpoint: %+v", rep)
	}
	if !strings.Contains(rep.String(), "epoch") {
		t.Errorf("report renders as %q", rep)
	}
	checkPrefix(t, parTuples(sys2), 4, 4)
	// Identical answers before and after the restart.
	got, err := sys2.Query("anc(seed_a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("anc(seed_a,Y): %v != %v", got, want)
	}
	got2, err := sys2.Query("anc(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got2) != fmt.Sprint(want2) {
		t.Errorf("anc(x0,Y): %v != %v", got2, want2)
	}
	// The epoch sequence continues: the next insert is strictly newer
	// than anything acknowledged before the restart.
	_, e, err := sys2.InsertFacts(durBatch(9))
	if err != nil {
		t.Fatal(err)
	}
	if e <= epoch {
		t.Errorf("post-restart epoch %d <= pre-restart %d", e, epoch)
	}
}

// TestDurableCrashPoints is the system-level crash matrix: a fault is
// injected at every filesystem operation of a fixed InsertFacts
// schedule (including the one between log append and epoch publish —
// the append fails, the epoch must not publish), then the process
// "crashes" losing unsynced data, reboots, and must recover a prefix
// covering every acknowledged batch.
func TestDurableCrashPoints(t *testing.T) {
	const batches = 5
	run := func(fs *wal.MemFS) (acked int, sys *System) {
		sys, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs), WithCheckpointBytes(-1))
		if err != nil {
			return 0, nil
		}
		for i := 0; i < batches; i++ {
			if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
				// The failed batch must not be visible in-process either.
				if got := parTuples(sys); got[fmt.Sprintf("x%d,y%d", i, i)] {
					panic("unacknowledged batch visible after log failure")
				}
				return i, sys
			}
		}
		return batches, sys
	}

	clean := wal.NewMemFS()
	if acked, _ := run(clean); acked != batches {
		t.Fatalf("fault-free run acked %d of %d", acked, batches)
	}
	totalOps := clean.Ops()

	for _, short := range []bool{false, true} {
		for failAt := 1; failAt <= totalOps; failAt++ {
			fs := wal.NewMemFS()
			fs.ShortWrite = short
			fs.SetFailAt(failAt)
			acked, sys := run(fs)
			if sys != nil {
				// In-process state always equals the acknowledged prefix
				// exactly, fault or not.
				checkPrefix(t, parTuples(sys), acked, acked)
			}

			sys2, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs.Crash(true)))
			if err != nil {
				t.Fatalf("short=%v failAt=%d: recovery failed: %v", short, failAt, err)
			}
			checkPrefix(t, parTuples(sys2), acked, batches)
		}
	}
}

func TestDurableCheckpointRetiresLog(t *testing.T) {
	fs := wal.NewMemFS()
	// Tiny threshold: every insert overflows it and triggers the
	// background checkpointer.
	sys, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs), WithCheckpointBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpointer is async; wait for any manifest to prove it
	// fired. (A trigger arriving while a checkpoint is in flight is
	// deliberately dropped, so we cannot demand one per insert.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		names, _ := fs.List("data")
		found := false
		for _, n := range names {
			if strings.HasPrefix(n, "manifest-") {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no manifest appeared; dir: %v", names)
		}
		time.Sleep(time.Millisecond)
	}
	// Close takes a final checkpoint at the last epoch.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart must come entirely from the checkpoint.
	sys2, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	rep := sys2.Recovery()
	if rep.RecordsReplayed != 0 || rep.CheckpointEpoch == 0 {
		t.Fatalf("restart should load from checkpoint only: %+v", rep)
	}
	checkPrefix(t, parTuples(sys2), 3, 3)
}

// TestDurableRejectsDerivedOverlap: a log written under a program where
// a tag was a base relation must fail recovery loudly if the program now
// derives that tag, instead of silently merging facts into an IDB.
func TestDurableRejectsDerivedOverlap(t *testing.T) {
	fs := wal.NewMemFS()
	sys, err := Load("p(a).", WithStorageDir("data"), withWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts("extra(k, v)."); err != nil {
		t.Fatal(err)
	}
	// Close would checkpoint; keep the log as the only state.
	changed := `
p(a).
extra(X, Y) <- p(X), p(Y).
`
	if _, err := Load(changed, WithStorageDir("data"), withWALFS(fs)); err == nil ||
		!strings.Contains(err.Error(), "derived") {
		t.Fatalf("recovery into a derived predicate must fail, got %v", err)
	}
}

func TestDurabilityOffIsFree(t *testing.T) {
	sys, err := Load(durSrc)
	if err != nil {
		t.Fatal(err)
	}
	if sys.wal != nil || sys.Recovery() != nil {
		t.Fatal("non-durable System grew durability state")
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close on non-durable System: %v", err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on non-durable System: %v", err)
	}
	if _, _, err := sys.InsertFacts(durBatch(0)); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		dir := t.TempDir()
		sys, err := Load(durSrc, WithStorageDir(dir), WithFsyncPolicy(p, 10*time.Millisecond))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if _, _, err := sys.InsertFacts(durBatch(0)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		sys2, err := Load(durSrc, WithStorageDir(dir))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		checkPrefix(t, parTuples(sys2), 1, 1)
		sys2.Close()
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy parsed")
	}
	// Sanity: the data dir really is on the real filesystem.
	dir := t.TempDir()
	sys, _ := Load(durSrc, WithStorageDir(dir))
	sys.InsertFacts(durBatch(1))
	sys.Close()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("ReadDir(%s) = %v, %v", dir, ents, err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "log-") && !strings.HasPrefix(e.Name(), "manifest-") && !strings.HasPrefix(e.Name(), "seg-") {
			t.Errorf("unexpected file %s", filepath.Join(dir, e.Name()))
		}
	}
}

// TestDurableRefusesSnapshotDir: a directory holding a checkpoint of
// the retired snapshot format must fail Load with an error naming the
// file, not boot without the facts the snapshot holds.
func TestDurableRefusesSnapshotDir(t *testing.T) {
	fs := wal.NewMemFS()
	sys, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts(durBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	const snap = "snapshot-0000000000000005"
	f, err := fs.Create("data/" + snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("facts this version cannot read"))
	f.Close()
	if _, err := Load(durSrc, WithStorageDir("data"), withWALFS(fs)); err == nil || !strings.Contains(err.Error(), snap) {
		t.Fatalf("Load over a snapshot checkpoint = %v, want an error naming %s", err, snap)
	}
}

// TestBackgroundCheckpointFailureCounted: a background checkpoint that
// fails is counted and its error kept in DurabilityStats, the log it
// could not retire stays intact (writes go on, a crash recovers every
// acknowledged batch), and the next checkpoint succeeds.
func TestBackgroundCheckpointFailureCounted(t *testing.T) {
	mem := wal.NewMemFS()
	sys, err := Load(durSrc, withStorageFS(mem)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts(durBatch(0)); err != nil {
		t.Fatal(err)
	}
	background := func() {
		t.Helper()
		sys.ckptBytes = 1 // the active segment is past the trigger
		sys.maybeCheckpoint()
		for sys.ckptBusy.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	// The log rotation takes three filesystem operations (sync the old
	// segment, open the new one, sync the directory); the fourth is the
	// first segment file's create, which fails.
	mem.SetFailAt(4)
	background()
	mem.SetFailAt(0)
	d := sys.Durability()
	if d.CheckpointFailures != 1 || !strings.Contains(d.CheckpointLastError, wal.ErrInjected.Error()) {
		t.Fatalf("after a failed background checkpoint: %+v", d)
	}
	if d.Wedged || d.LastCheckpoint != 0 {
		t.Fatalf("failed checkpoint wedged the log or claimed success: %+v", d)
	}
	if _, _, err := sys.InsertFacts(durBatch(1)); err != nil {
		t.Fatalf("insert after a failed checkpoint: %v", err)
	}
	crashed, err := Load(durSrc, withStorageFS(mem.Crash(true))...)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, parTuples(crashed), 2, 2)

	background()
	d = sys.Durability()
	if d.CheckpointFailures != 1 || d.LastCheckpoint != sys.Epoch() {
		t.Fatalf("after a successful background checkpoint: %+v (epoch %d)", d, sys.Epoch())
	}
}
