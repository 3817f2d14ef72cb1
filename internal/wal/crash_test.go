package wal

// The crash matrix: one fault schedule — a fixed sequence of appends
// with a checkpoint in the middle (rotate, commit the base state
// outside the log, retire the covered prefix) — run once per possible
// crash point, in every damage mode (clean fail, torn short write,
// page-cache loss).
// The invariant proved for every cell: recovery succeeds, and the
// recovered fact state equals the state after some PREFIX of the
// attempted batches — at least covering every acknowledged batch
// (SyncAlways), with no partial batch and no hole, ever.

import (
	"fmt"
	"sort"
	"testing"

	"ldl/internal/term"
)

// factState is the oracle's model of the fact base: tag -> set of
// rendered tuples.
type factState map[string]map[string]bool

func (s factState) add(b Batch) {
	for _, r := range b.Rels {
		set := s[r.Tag]
		if set == nil {
			set = map[string]bool{}
			s[r.Tag] = set
		}
		for _, t := range rowsOf(r) {
			set[fmt.Sprint(t)] = true
		}
	}
}

func (s factState) equal(o factState) bool {
	if len(s) != len(o) {
		return false
	}
	for tag, set := range s {
		oset := o[tag]
		if len(set) != len(oset) {
			return false
		}
		for k := range set {
			if !oset[k] {
				return false
			}
		}
	}
	return true
}

// checkpointAfter is the batch index after which the schedule rotates
// and checkpoints.
const (
	scheduleBatches = 6
	checkpointAfter = 3
	firstEpoch      = 2
)

// runSchedule drives the fixed schedule against fs until a fault stops
// it, returning the epochs whose append was acknowledged (returned
// nil). cumulative[i] is the fact state after batches [0..i).
func runSchedule(t *testing.T, fs *MemFS, policy SyncPolicy) (acked []uint64) {
	t.Helper()
	l, rep, err := Open(dir, Options{FS: fs, Sync: policy}, func(Batch) error { return nil })
	if err != nil {
		return nil // crashed during open: nothing acknowledged
	}
	defer l.Close()
	if rep.Epoch != 0 {
		t.Fatalf("schedule must start on a fresh dir, got epoch %d", rep.Epoch)
	}
	state := factState{}
	for i := 0; i < scheduleBatches; i++ {
		e := uint64(firstEpoch + i)
		b := mkBatch(e)
		if err := appendSync(l, b); err != nil {
			return acked
		}
		acked = append(acked, e)
		state.add(b)
		if i+1 == checkpointAfter {
			if err := l.Rotate(e); err != nil {
				return acked
			}
			// A failed checkpoint is not fatal to the history — appends
			// may continue until the fault reaches them.
			if writeBase(fs, Batch{Epoch: e, Rels: checkpointRels(state)}) == nil {
				l.Retire(e)
			}
		}
	}
	return acked
}

// baseFile stands in for the segment tier's manifest: the schedule's
// checkpoint commits the base state there before retiring the log.
const baseFile = dir + "/base"

// writeBase commits b as the base state: tmp, sync, rename, dir sync.
func writeBase(fs FS, b Batch) error {
	buf, err := AppendRecord(nil, b)
	if err != nil {
		return err
	}
	f, err := fs.Create(baseFile + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	if err := fs.Rename(baseFile+".tmp", baseFile); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// readBase applies the committed base state, if any, and returns its
// epoch — the BaseEpoch log recovery continues from.
func readBase(t *testing.T, fs FS, apply func(Batch) error) uint64 {
	t.Helper()
	data, err := fs.ReadFile(baseFile)
	if err != nil {
		return 0
	}
	b, n, err := ReadRecord(data)
	if err != nil || n != len(data) {
		t.Fatalf("base file renamed into place but invalid: %v", err)
	}
	apply(b)
	return b.Epoch
}

// checkpointRels converts the oracle state into the RelFacts a real
// checkpointer would write. Tuple strings round-trip through the
// original mkBatch terms, so rebuild them from the epochs covered.
func checkpointRels(state factState) []RelFacts {
	// mkBatch tuples are (atom, int); reconstruct from rendered form is
	// fragile, so rebuild from scratch: the state after k batches is the
	// union of mkBatch(2..k+1), and the checkpoint runs after
	// checkpointAfter batches.
	var rows [][]term.Term
	for i := 0; i < checkpointAfter; i++ {
		rows = append(rows, rowsOf(mkBatch(uint64(firstEpoch + i)).Rels[0])...)
	}
	return []RelFacts{relFacts("par/2", 2, rows)}
}

// prefixStates returns the fact state after every prefix of the
// schedule: prefixStates()[k] = state after the first k batches.
func prefixStates() []factState {
	out := []factState{{}}
	cur := factState{}
	for i := 0; i < scheduleBatches; i++ {
		cur.add(mkBatch(uint64(firstEpoch + i)))
		// Deep copy.
		cp := factState{}
		for tag, set := range cur {
			cp[tag] = map[string]bool{}
			for k := range set {
				cp[tag][k] = true
			}
		}
		out = append(out, cp)
	}
	return out
}

func TestCrashMatrix(t *testing.T) {
	// First pass: count the operations of a fault-free run.
	clean := NewMemFS()
	ackedClean := runSchedule(t, clean, SyncAlways)
	if len(ackedClean) != scheduleBatches {
		t.Fatalf("fault-free schedule acked %d of %d batches", len(ackedClean), scheduleBatches)
	}
	totalOps := clean.Ops()
	if totalOps < 10 {
		t.Fatalf("suspiciously small schedule: %d ops", totalOps)
	}
	prefixes := prefixStates()

	for _, mode := range []struct {
		name         string
		short        bool
		dropUnsynced bool
	}{
		{"clean-fail+pagecache-kept", false, false},
		{"clean-fail+pagecache-lost", false, true},
		{"short-write+pagecache-kept", true, false},
		{"short-write+pagecache-lost", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for failAt := 1; failAt <= totalOps; failAt++ {
				fs := NewMemFS()
				fs.ShortWrite = mode.short
				fs.SetFailAt(failAt)
				acked := runSchedule(t, fs, SyncAlways)

				// Reboot from what a crash at this point leaves behind.
				rebooted := fs.Crash(mode.dropUnsynced)
				got := factState{}
				apply := func(b Batch) error { got.add(b); return nil }
				rep, err := recoverDir(dir, rebooted, readBase(t, rebooted, apply), apply)
				if err != nil {
					t.Fatalf("failAt=%d: crash damage must be recoverable, got %v", failAt, err)
				}

				// The recovered state must be exactly some prefix of the
				// attempted batches...
				k := -1
				for i, ps := range prefixes {
					if got.equal(ps) {
						k = i
						break
					}
				}
				if k < 0 {
					t.Fatalf("failAt=%d: recovered state matches no prefix: %v", failAt, render(got))
				}
				// ...that covers every acknowledged batch (SyncAlways
				// guarantee, independent of what the page cache lost).
				if k < len(acked) {
					t.Fatalf("failAt=%d: recovered prefix %d < %d acknowledged batches (report %+v)",
						failAt, k, len(acked), rep)
				}
				// And the epoch bookkeeping must agree with the prefix.
				if k > 0 && rep.Epoch != uint64(firstEpoch+k-1) {
					t.Fatalf("failAt=%d: report epoch %d, want %d", failAt, rep.Epoch, firstEpoch+k-1)
				}

				// A second reboot of the recovered-and-truncated state
				// must land on the same prefix (recovery is idempotent).
				var open2 []Batch
				base := readBase(t, rebooted, collect(&open2))
				l2, _, err := Open(dir, Options{FS: rebooted, BaseEpoch: base}, collect(&open2))
				if err != nil {
					t.Fatalf("failAt=%d: reopen after recovery: %v", failAt, err)
				}
				l2.Close()
				got2 := factState{}
				for _, b := range open2 {
					got2.add(b)
				}
				if !got2.equal(got) {
					t.Fatalf("failAt=%d: reopen recovered a different state", failAt)
				}
			}
		})
	}
}

// TestCrashMatrixIntervalPolicy re-runs the matrix under SyncInterval
// with an infinite interval (never syncs on its own): acknowledged
// batches may be lost, but the prefix property must still hold — a
// crash never yields a hole or a partial batch, only a shorter history.
func TestCrashMatrixIntervalPolicy(t *testing.T) {
	clean := NewMemFS()
	runSchedule(t, clean, SyncNever)
	totalOps := clean.Ops()

	for failAt := 1; failAt <= totalOps; failAt++ {
		for _, short := range []bool{false, true} {
			fs := NewMemFS()
			fs.ShortWrite = short
			fs.SetFailAt(failAt)
			runSchedule(t, fs, SyncNever)
			rebooted := fs.Crash(true)
			got := factState{}
			apply := func(b Batch) error { got.add(b); return nil }
			_, err := recoverDir(dir, rebooted, readBase(t, rebooted, apply), apply)
			if err != nil {
				t.Fatalf("failAt=%d short=%v: %v", failAt, short, err)
			}
			found := false
			for _, ps := range prefixStates() {
				if got.equal(ps) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("failAt=%d short=%v: recovered state matches no prefix: %v",
					failAt, short, render(got))
			}
		}
	}
}

func render(s factState) string {
	var tags []string
	for tag := range s {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	out := ""
	for _, tag := range tags {
		var rows []string
		for k := range s[tag] {
			rows = append(rows, k)
		}
		sort.Strings(rows)
		out += fmt.Sprintf("%s%v ", tag, rows)
	}
	return out
}
