package ldl

// Write-path parity: every way a fact enters a System — a leader's
// InsertFacts, a follower's ApplyReplicated, WAL recovery, and a boot
// from snapshots or segments — must build the same epochs: same ids,
// same rows in the same order, the same statistics catalog and the same
// views. The optimizer costs plans against that catalog (acyclicity
// gates the counting method), so it must depend only on the facts, never
// on the path that loaded them.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ldl/internal/stats"
	"ldl/internal/term"
	"ldl/internal/wal"
)

const parityScheduleSrc = `
par(seed_a, seed_b).
lbl(seed_a).
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
marked(X, Y) <- lbl(X), anc(X, Y).
`

// parityBatch is one InsertFacts call of the schedule: its source text
// and the wal.Batch a leader logs for it (grouped by relation, each
// relation's tuples in source order, relations sorted by tag).
type parityBatch struct {
	src  string
	rels []wal.RelFacts
}

// paritySchedule draws a seeded schedule of fact batches over two base
// relations: interleaved tags, duplicates within and across batches,
// restated program facts, and edges that eventually close cycles.
func paritySchedule(seed int64, n int) []parityBatch {
	rng := rand.New(rand.NewSource(seed))
	node := func() term.Term { return term.Atom(fmt.Sprintf("n%d", rng.Intn(6))) }
	out := make([]parityBatch, n)
	for i := range out {
		var src strings.Builder
		byTag := map[string][][]term.Term{}
		add := func(tag string, args ...term.Term) {
			byTag[tag] = append(byTag[tag], args)
			parts := make([]string, len(args))
			for j, a := range args {
				parts[j] = a.String()
			}
			fmt.Fprintf(&src, "%s(%s). ", tag[:strings.IndexByte(tag, '/')], strings.Join(parts, ", "))
		}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			switch rng.Intn(6) {
			case 0:
				add("lbl/1", node())
			case 1:
				add("par/2", term.Atom("seed_a"), term.Atom("seed_b"))
			default:
				add("par/2", node(), node())
			}
		}
		tags := make([]string, 0, len(byTag))
		for tag := range byTag {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			out[i].rels = append(out[i].rels, relFacts(tag, len(byTag[tag][0]), byTag[tag]))
		}
		out[i].src = src.String()
	}
	return out
}

// relFacts interns boxed test rows into a batch relation's ID columns.
func relFacts(tag string, arity int, rows [][]term.Term) wal.RelFacts {
	r := wal.RelFacts{Tag: tag, Arity: arity, Rows: len(rows), Cols: make([][]term.ID, arity)}
	for _, row := range rows {
		for c, t := range row {
			r.Cols[c] = append(r.Cols[c], term.Intern(t))
		}
	}
	return r
}

// epochFingerprint renders everything an epoch publishes: its id, every
// base relation's rows in storage order, the statistics catalog (checked
// against a fresh gather, the oracle), and the views as sets.
func epochFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	ep := sys.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d\n", ep.id)
	for _, tag := range ep.db.Tags() {
		fmt.Fprintf(&b, "%s %v\n", tag, ep.db.Relation(tag).Lookup(0, nil))
	}
	if got, want := catalogString(ep.cat), catalogString(stats.Gather(ep.db)); got != want {
		t.Errorf("epoch %d catalog differs from a fresh gather\n got: %s\nwant: %s", ep.id, got, want)
	}
	b.WriteString(catalogString(ep.cat))
	if sys.Materialized() {
		if ep.mat == nil {
			t.Fatalf("epoch %d lost its views", ep.id)
		}
		tags := make([]string, 0, len(ep.mat.rels))
		for tag := range ep.mat.rels {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			fmt.Fprintf(&b, "view %s %v\n", tag, ep.mat.rels[tag].Sorted())
		}
	}
	return b.String()
}

// catalogString renders every per-tag entry of a catalog, acyclicity
// included.
func catalogString(c *stats.Catalog) string {
	var b strings.Builder
	for _, tag := range c.Tags() {
		fmt.Fprintf(&b, "%s %+v\n", tag, c.Stats(tag))
	}
	return b.String()
}

// logBytes concatenates the log segments of a data directory in name
// order.
func logBytes(t *testing.T, fs *wal.MemFS) string {
	t.Helper()
	names, err := fs.List("data")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if strings.HasPrefix(n, "log-") {
			data, err := fs.ReadFile("data/" + n)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s:%x\n", n, data)
		}
	}
	return b.String()
}

func TestWritePathParity(t *testing.T) {
	tiers := []struct {
		name string
		opts func(fs wal.FS) []SystemOption
	}{
		{"memory", func(wal.FS) []SystemOption { return nil }},
		{"storage", withStorageFS},
	}
	modes := []struct {
		name string
		opts []SystemOption
	}{
		{"plain", nil},
		{"materialized", []SystemOption{WithMaterialized()}},
	}
	schedule := paritySchedule(7, 12)
	for _, tier := range tiers {
		for _, mode := range modes {
			t.Run(tier.name+"/"+mode.name, func(t *testing.T) {
				open := func(fs *wal.MemFS) *System {
					t.Helper()
					sys, err := Load(parityScheduleSrc, append(tier.opts(fs), mode.opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					return sys
				}
				lfs, ffs := wal.NewMemFS(), wal.NewMemFS()
				leader, follower := open(lfs), open(ffs)
				follower.SetReadOnly("leader")
				for i, pb := range schedule {
					_, epoch, err := leader.InsertFacts(pb.src)
					if err != nil {
						t.Fatalf("batch %d: InsertFacts: %v", i, err)
					}
					b := wal.Batch{Epoch: epoch, Term: leader.Term(), Rels: pb.rels}
					if err := follower.ApplyReplicated(b); err != nil {
						t.Fatalf("batch %d: ApplyReplicated: %v", i, err)
					}
					if got, want := epochFingerprint(t, follower), epochFingerprint(t, leader); got != want {
						t.Fatalf("batch %d: follower diverges from leader\n got:\n%s\nwant:\n%s", i, got, want)
					}
				}
				if tier.name == "memory" {
					return
				}
				want := epochFingerprint(t, leader)
				if got := logBytes(t, ffs); got != logBytes(t, lfs) {
					t.Errorf("follower log differs from the leader's\n got: %s\nwant: %s", got, logBytes(t, lfs))
				}
				// Crash both nodes (unsynced bytes lost), then shut them down
				// cleanly (final checkpoint or flush): every reload rebuilds
				// the leader's last epoch.
				for _, fs := range []*wal.MemFS{lfs, ffs} {
					if got := epochFingerprint(t, open(fs.Crash(true))); got != want {
						t.Errorf("crash reload diverges\n got:\n%s\nwant:\n%s", got, want)
					}
				}
				for i, sys := range []*System{leader, follower} {
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					reborn := open([]*wal.MemFS{lfs, ffs}[i])
					if got := epochFingerprint(t, reborn); got != want {
						t.Errorf("reload after Close diverges\n got:\n%s\nwant:\n%s", got, want)
					}
					reborn.Close()
				}
			})
		}
	}
}
