package ldl_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ldl"
)

// Storage-tier acceptance benchmarks (BENCH_PR9.json): boot a ~1M-fact
// base from columnar segments (open, don't replay) vs replaying the
// WAL record-by-record, and bound query latency against a
// segment-backed relation vs the same base resident in memory. The fact
// base is f/2 with a million distinct rows, built once per process and
// shared across arms.

const benchFacts = 1_000_000

// benchProgram is the seed program; the base is grown via InsertFacts.
const benchProgram = "q(X, Y) <- f(X, Y).\nf(seed, seed).\n"

func insertBase(sys *ldl.System, n int) error {
	const batch = 20_000
	for lo := 0; lo < n; lo += batch {
		var b strings.Builder
		for i := lo; i < lo+batch && i < n; i++ {
			fmt.Fprintf(&b, "f(x%d, y%d).\n", i, i)
		}
		if _, _, err := sys.InsertFacts(b.String()); err != nil {
			return err
		}
	}
	return nil
}

// segDir holds a flushed segment base: manifest + segments cover every
// fact, the retired log is empty, so boot decodes columns and replays
// nothing.
var segDir = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "ldl-bench-seg-")
	if err != nil {
		return "", err
	}
	sys, err := ldl.Load(benchProgram, ldl.WithStorageDir(dir), ldl.WithCheckpointBytes(-1))
	if err != nil {
		return "", err
	}
	if err := insertBase(sys, benchFacts); err != nil {
		return "", err
	}
	return dir, sys.Close()
})

// replayDir holds the same base as a bare log: fsynced per batch but
// never checkpointed (the builder is abandoned without Close), so boot
// must replay every record. This is the before-state this PR removes.
var replayDir = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "ldl-bench-replay-")
	if err != nil {
		return "", err
	}
	sys, err := ldl.Load(benchProgram, ldl.WithStorageDir(dir), ldl.WithCheckpointBytes(-1))
	if err != nil {
		return "", err
	}
	if err := insertBase(sys, benchFacts); err != nil {
		return "", err
	}
	// No Close: Close flushes segments, and this arm measures raw
	// replay. FsyncAlways already made every batch durable.
	return dir, nil
})

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkStorageBoot measures time-to-first-query on the 1M-fact
// base for each boot path. The segment arm must report zero records
// replayed — it opens the manifest, attaches columns, and serves.
// heap-MB is the post-boot live heap (after GC), the bounded-RSS
// signal.
func BenchmarkStorageBoot(b *testing.B) {
	arms := []struct {
		name  string
		dir   func() (string, error)
		opt   func(dir string) ldl.SystemOption
		close bool
	}{
		{"segment", segDir, func(d string) ldl.SystemOption { return ldl.WithStorageDir(d) }, true},
		{"replay", replayDir, func(d string) ldl.SystemOption { return ldl.WithStorageDir(d) }, false},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			dir, err := arm.dir()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var heap float64
			for i := 0; i < b.N; i++ {
				sys, err := ldl.Load(benchProgram, arm.opt(dir), ldl.WithCheckpointBytes(-1))
				if err != nil {
					b.Fatal(err)
				}
				rows, err := sys.Query(fmt.Sprintf("q(x%d, Y)", benchFacts/2))
				if err != nil || len(rows) != 1 {
					b.Fatalf("probe query: %d rows, err=%v", len(rows), err)
				}
				rep := sys.Recovery()
				if arm.name == "segment" && rep.RecordsReplayed != 0 {
					b.Fatalf("segment boot replayed: %+v", rep)
				}
				if arm.name == "replay" && rep.RecordsReplayed == 0 {
					b.Fatal("replay arm replayed nothing — stale manifest in dir?")
				}
				if i == b.N-1 {
					b.StopTimer()
					heap = heapMB()
					b.StartTimer()
				}
				if arm.close {
					// Close is cheap here (manifest already current); the
					// replay arm skips Close so the dir stays a pure log
					// for the next iteration.
					if err := sys.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(heap, "heap-MB")
		})
	}
}

// memSys is the in-memory reference base for the query-parity arm.
var memSys = sync.OnceValues(func() (*ldl.System, error) {
	sys, err := ldl.Load(benchProgram)
	if err != nil {
		return nil, err
	}
	return sys, insertBase(sys, benchFacts)
})

// segSys is a segment-backed system over the flushed base: every fact
// lives in attached parts, the tail is empty.
var segSys = sync.OnceValues(func() (*ldl.System, error) {
	dir, err := segDir()
	if err != nil {
		return nil, err
	}
	return ldl.Load(benchProgram, ldl.WithStorageDir(dir), ldl.WithCheckpointBytes(-1))
})

// BenchmarkStorageQuery: bound point queries against the 1M-fact base,
// memory-resident vs segment-backed. Parity here is the latency cost
// of the parts+tail indirection on the read path (correctness parity
// is pinned by TestStorageGoldenEquivalence).
func BenchmarkStorageQuery(b *testing.B) {
	arms := []struct {
		name string
		sys  func() (*ldl.System, error)
	}{
		{"memory", memSys},
		{"segment", segSys},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			sys, err := arm.sys()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % benchFacts
				rows, err := sys.Query(fmt.Sprintf("q(x%d, Y)", k))
				if err != nil || len(rows) != 1 {
					b.Fatalf("key %d: %d rows, err=%v", k, len(rows), err)
				}
			}
		})
	}
}
