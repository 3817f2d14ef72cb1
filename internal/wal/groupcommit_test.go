package wal

// Group-commit tests: concurrent AppendCommit/Commit writers must share
// fsyncs (one cohort leader syncs for everyone appended so far), a
// Commit that returns nil must mean the record survives a page-cache
// crash, and a sync failure must wedge every waiter. The benchmark
// quantifies the amortization the satellite task asks for.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncCountFS wraps an FS, counting File.Sync calls and optionally
// making each one slow — a stand-in for real fsync latency, so cohorts
// actually form under test schedulers.
type syncCountFS struct {
	FS
	syncs atomic.Int64
	delay time.Duration
}

func (s *syncCountFS) OpenAppend(name string) (File, int64, error) {
	f, size, err := s.FS.OpenAppend(name)
	if err != nil {
		return nil, 0, err
	}
	return &syncCountFile{File: f, fs: s}, size, nil
}

func (s *syncCountFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &syncCountFile{File: f, fs: s}, nil
}

type syncCountFile struct {
	File
	fs *syncCountFS
}

func (f *syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.delay > 0 {
		time.Sleep(f.fs.delay)
	}
	return f.File.Sync()
}

func TestGroupCommitAmortizesFsync(t *testing.T) {
	mem := NewMemFS()
	fs := &syncCountFS{FS: mem, delay: 2 * time.Millisecond}
	l, _, _ := mustOpen(t, fs, Options{Sync: SyncAlways})
	boot := fs.syncs.Load() // Open itself syncs; don't count it

	const writers, perWriter = 8, 16
	const batches = writers * perWriter
	// Epochs must be appended in increasing order (the log's contract);
	// appendMu plays the role of System's writeMu. Commit runs outside
	// it — that is the whole point.
	var appendMu sync.Mutex
	var epoch uint64 = 1
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				appendMu.Lock()
				epoch++
				lsn, err := l.AppendCommit(mkBatch(epoch))
				appendMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := l.Commit(lsn); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("commit: %v", err)
	}

	syncs := fs.syncs.Load() - boot
	t.Logf("%d batches committed with %d fsyncs", batches, syncs)
	if syncs > batches/2 {
		t.Errorf("group commit did not amortize: %d fsyncs for %d batches", syncs, batches)
	}
	// Every acknowledged batch must survive a full page-cache crash.
	var got []Batch
	if _, err := Recover(dir, mem.Crash(true), collect(&got)); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(got) != batches {
		t.Errorf("recovered %d batches after crash, want %d", len(got), batches)
	}
	l.Close()
}

func TestGroupCommitSyncFailureWedges(t *testing.T) {
	mem := NewMemFS()
	l, _, _ := mustOpen(t, mem, Options{Sync: SyncAlways})
	lsn, err := l.AppendCommit(mkBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	mem.SetFailAt(1)
	if err := l.Commit(lsn); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit over failing fsync = %v, want ErrInjected", err)
	}
	mem.SetFailAt(0) // fault cleared, but the log must stay wedged
	if _, err := l.AppendCommit(mkBatch(3)); !errors.Is(err, ErrInjected) {
		t.Fatalf("AppendCommit after wedge = %v, want the latched error", err)
	}
	if err := l.Commit(lsn); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit after wedge = %v, want the latched error", err)
	}
}

func TestGroupCommitRelaxedPolicies(t *testing.T) {
	// Under SyncNever/SyncInterval, Commit applies the relaxed rules: it
	// returns without forcing an fsync.
	mem := NewMemFS()
	fs := &syncCountFS{FS: mem}
	l, _, _ := mustOpen(t, fs, Options{Sync: SyncNever})
	boot := fs.syncs.Load()
	for e := uint64(2); e <= 5; e++ {
		lsn, err := l.AppendCommit(mkBatch(e))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if n := fs.syncs.Load() - boot; n != 0 {
		t.Errorf("SyncNever commit forced %d fsyncs", n)
	}
}

// benchCommit measures per-batch commit cost with nWriters concurrent
// writers sharing one log, and reports fsyncs per operation — the
// number group commit exists to shrink.
func benchCommit(b *testing.B, nWriters int) {
	mem := NewMemFS()
	fs := &syncCountFS{FS: mem, delay: 100 * time.Microsecond} // device-ish latency
	var got []Batch
	l, _, err := Open(dir, Options{FS: fs, Sync: SyncAlways}, collect(&got))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	boot := fs.syncs.Load()

	var appendMu sync.Mutex
	var epoch uint64 = 1
	b.ResetTimer()
	b.SetParallelism(nWriters)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			appendMu.Lock()
			epoch++
			lsn, err := l.AppendCommit(mkBatch(epoch))
			appendMu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Commit(lsn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(fs.syncs.Load()-boot)/float64(b.N), "fsyncs/op")
}

func BenchmarkCommit1Writer(b *testing.B)   { benchCommit(b, 1) }
func BenchmarkCommit8Writers(b *testing.B)  { benchCommit(b, 8) }
func BenchmarkCommit32Writers(b *testing.B) { benchCommit(b, 32) }
