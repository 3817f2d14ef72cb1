package ldl

// Storage-tier tests: the segment/manifest glue in storage.go driven
// through the public API. The wal.MemFS fault injector is the
// filesystem, so the crash matrix covers segment flushes and manifest
// swaps the same way durable_test.go covers the log alone: every fault
// schedule must recover to a prefix of the acknowledged batches.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldl/internal/wal"
)

// withStorageFS opens a System on the storage tier over an injected
// filesystem, with the background checkpointer disabled so tests
// control every flush explicitly.
func withStorageFS(fs wal.FS) []SystemOption {
	return []SystemOption{WithStorageDir("data"), withWALFS(fs), WithCheckpointBytes(-1)}
}

func TestStorageRestartRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	sys, err := Load(durSrc, withStorageFS(fs)...)
	if err != nil {
		t.Fatal(err)
	}
	if rep := sys.Recovery(); rep == nil || rep.RecordsReplayed != 0 {
		t.Fatalf("fresh dir recovery = %+v", rep)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sys.Query("anc(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	// Explicit mid-life flush, then more inserts on top of the frozen
	// prefix, then the final flush at Close.
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := sys.StorageStats()
	if !st.Enabled || st.Segments == 0 || st.SegmentRows == 0 {
		t.Fatalf("after flush: %+v", st)
	}
	// The flushed state answers identically.
	got, err := sys.Query("anc(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers changed across flush: %v != %v", got, want)
	}
	for i := 4; i < 6; i++ {
		if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	epoch := sys.Epoch()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: boot must come from the manifest, not a replay.
	sys2, err := Load(durSrc, withStorageFS(fs.Crash(true))...)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys2.Recovery()
	if rep == nil || rep.Epoch != epoch {
		t.Fatalf("recovery = %+v, want epoch %d", rep, epoch)
	}
	if rep.RecordsReplayed != 0 {
		t.Errorf("open-not-replay: boot after clean Close replayed %d records (%+v)", rep.RecordsReplayed, rep)
	}
	// Every recovery report names the manifest boot attached.
	if rep.CheckpointEpoch != epoch || sys2.Durability().LastCheckpoint != epoch ||
		!strings.Contains(rep.String(), fmt.Sprintf("checkpoint@%d ", epoch)) {
		t.Errorf("recovery reports checkpoint %d (LastCheckpoint %d, %q), want the manifest at %d",
			rep.CheckpointEpoch, sys2.Durability().LastCheckpoint, rep, epoch)
	}
	checkPrefix(t, parTuples(sys2), 6, 6)
	got2, err := sys2.Query("anc(x0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got2) != fmt.Sprint(want) {
		t.Fatalf("post-restart answers diverge: %v != %v", got2, want)
	}
	st2 := sys2.StorageStats()
	if st2.ManifestEpoch != epoch || st2.TailRows != 0 {
		t.Errorf("after reopen: %+v, want manifest at %d with empty tail", st2, epoch)
	}
	// The epoch sequence continues past everything acknowledged.
	if _, e, err := sys2.InsertFacts(durBatch(9)); err != nil || e <= epoch {
		t.Fatalf("post-restart insert: epoch %d err %v, want > %d", e, err, epoch)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStorageCrashMatrix injects a fault at every filesystem operation
// of a fixed schedule that interleaves inserts with explicit
// checkpoints — so the faults land inside segment writes, manifest
// swaps, log rotations and retirements too — then crashes losing
// unsynced data, reboots, and requires recovery to a prefix covering
// every acknowledged batch. A failed checkpoint must never lose
// acknowledged data: the old manifest plus the unretired log remain
// the durable state.
func TestStorageCrashMatrix(t *testing.T) {
	const batches = 5
	run := func(fs *wal.MemFS) (acked int, sys *System) {
		sys, err := Load(durSrc, withStorageFS(fs)...)
		if err != nil {
			return 0, nil
		}
		for i := 0; i < batches; i++ {
			if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
				if got := parTuples(sys); got[fmt.Sprintf("x%d,y%d", i, i)] {
					panic("unacknowledged batch visible after log failure")
				}
				return i, sys
			}
			if i == 1 || i == 3 {
				// Flush mid-schedule; a failure here is not a lost batch.
				sys.Checkpoint()
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
				// In-process state equals the acknowledged prefix exactly,
				// fault or not — checkpoint failures included.
				checkPrefix(t, parTuples(sys), acked, acked)
			}

			sys2, err := Load(durSrc, withStorageFS(fs.Crash(true))...)
			if err != nil {
				t.Fatalf("short=%v failAt=%d: recovery failed: %v", short, failAt, err)
			}
			checkPrefix(t, parTuples(sys2), acked, batches)
		}
	}
}

// TestStorageSweepsStaleTmp: debris a crashed flush leaves behind —
// half-written *.tmp segment and manifest files, segment files no
// manifest references — must be removed at open and must not disturb
// recovery.
func TestStorageSweepsStaleTmp(t *testing.T) {
	fs := wal.NewMemFS()
	sys, err := Load(durSrc, withStorageFS(fs)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts(durBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant crash debris.
	for _, name := range []string{
		"data/seg-00000000000000ff-000-par~2.tmp",
		"data/manifest-00000000000000ff.tmp",
		"data/seg-00000000000000ff-001-orphan",
	} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("debris"))
		f.Close()
	}

	sys2, err := Load(durSrc, withStorageFS(fs)...)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, parTuples(sys2), 1, 1)
	names, err := fs.List("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") || strings.Contains(n, "orphan") {
			t.Errorf("stale file %s survived open (dir: %v)", n, names)
		}
	}
	sys2.Close()
}

// TestStorageGoldenEquivalence runs the golden corpus against a
// storage-backed System in three phases — before any flush, after an
// explicit flush (answers now come through segment parts), and after a
// close/reopen (parts re-attached from disk, dictionary re-interned) —
// across the same executor grid as TestGoldenEquivalence. Every phase
// and configuration must match the memory-backed reference byte for
// byte.
func TestStorageGoldenEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	configs := []struct {
		name string
		opts []Option
	}{
		{"generic", []Option{WithCompiledKernels(false)}},
		{"compiled", nil},
	}
	render := func(rows [][]string) string {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(strings.Join(r, ","))
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".ldl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := Load(string(src))
			if err != nil {
				t.Fatal(err)
			}
			fs := wal.NewMemFS()
			disk, err := Load(string(src), withStorageFS(fs)...)
			if err != nil {
				t.Fatal(err)
			}
			check := func(phase string, sys *System) {
				for _, goal := range mem.Queries() {
					for _, cfg := range configs {
						wantRows, _, err := mem.EvaluateUnoptimized(goal, cfg.opts...)
						if err != nil {
							t.Fatalf("%s / %s: memory: %v", goal, cfg.name, err)
						}
						gotRows, _, err := sys.EvaluateUnoptimized(goal, cfg.opts...)
						if err != nil {
							t.Fatalf("%s / %s / %s: storage: %v", phase, goal, cfg.name, err)
						}
						if got, want := render(gotRows), render(wantRows); got != want {
							t.Errorf("%s / %s / %s: storage answers diverge\n got:\n%s\nwant:\n%s",
								phase, goal, cfg.name, got, want)
						}
					}
				}
			}
			check("unflushed", disk)
			if err := disk.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("flushed", disk)
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			disk2, err := Load(string(src), withStorageFS(fs.Crash(true))...)
			if err != nil {
				t.Fatal(err)
			}
			check("reopened", disk2)
			disk2.Close()
		})
	}
}

// TestStorageWithMaterializedViews: the storage tier composes with
// incremental view maintenance — flushes freeze the base tails the
// views watermark against, and a reopen rebuilds the views over
// attached segments.
func TestStorageWithMaterializedViews(t *testing.T) {
	fs := wal.NewMemFS()
	opts := append(withStorageFS(fs), WithMaterialized())
	sys, err := Load(durSrc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := sys.InsertFacts(durBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Inserts after the flush continue the fixpoint on frozen bases.
	if _, _, err := sys.InsertFacts(durBatch(3)); err != nil {
		t.Fatal(err)
	}
	rows, ok, err := sys.AnswersFromViews("anc(x3, Y)")
	if err != nil || !ok || len(rows) == 0 {
		t.Fatalf("views after flush: rows=%v ok=%v err=%v", rows, ok, err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(durSrc, append(withStorageFS(fs.Crash(true)), WithMaterialized())...)
	if err != nil {
		t.Fatal(err)
	}
	rows2, ok, err := sys2.AnswersFromViews("anc(x3, Y)")
	if err != nil || !ok {
		t.Fatalf("views after reopen: ok=%v err=%v", ok, err)
	}
	if fmt.Sprint(rows2) != fmt.Sprint(rows) {
		t.Errorf("view answers changed across reopen: %v != %v", rows2, rows)
	}
	sys2.Close()
}
