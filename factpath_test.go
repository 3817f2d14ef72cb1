package ldl

// The fact path from the outside. The durable directory's bytes are a
// function of the facts alone: a fixed write schedule — program facts,
// twenty InsertFacts batches mixing atoms, integers, strings and
// compounds, a checkpoint midway and a leader-term bump — must leave
// log, segment and manifest files with exactly these SHA-256 digests,
// whatever the in-memory row form the facts crossed on their way,
// whatever term IDs the process handed out, and in whichever process
// the schedule runs. And a refused write interns nothing.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ldl/internal/term"
	"ldl/internal/wal"
)

const dirBytesSrc = `
kv(k0, 0, "p", f(v0, g(0, "t"))).
lbl(a). lbl(b).
has(K, V) <- kv(K, V, S, F).
`

// dirBytesBatch is the i-th 256-fact batch: fresh keys, repeating
// values, negative and wide integers, strings with spaces, nested
// compounds and lists, a second relation, and restated facts.
func dirBytesBatch(i int) string {
	var b strings.Builder
	for j := 0; j < 256; j++ {
		switch j % 8 {
		case 7:
			fmt.Fprintf(&b, "lbl(l%d).\n", j%24)
		case 6:
			b.WriteString("kv(k0, 0, \"p\", f(v0, g(0, \"t\"))).\n")
		default:
			fmt.Fprintf(&b, "kv(k%d_%d, %d, \"s %d\", f(v%d, g(%d, [%d, x]))).\n",
				i, j, (j*7919-40000)*(1+j%3*100000), j%5, j%16, i, j%9)
		}
	}
	return b.String()
}

func TestDurableDirBytes(t *testing.T) {
	fs := wal.NewMemFS()
	sys, err := Load(dirBytesSrc, WithStorageDir("data"), withWALFS(fs), WithFsyncPolicy(FsyncNever, 0), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		switch i {
		case 10:
			if err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 15:
			if _, _, err := sys.Promote(); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := sys.InsertFacts(dirBytesBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fs.List("data")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	got := map[string]string{}
	for _, n := range names {
		data, err := fs.ReadFile("data/" + n)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[n] = hex.EncodeToString(sum[:])
	}
	want := map[string]string{
		"log-000000000000000b":           "dbdb280dcb1c15a9e6fe0ed374be5ffa4933fc2553de0d4226fbf3cbad5a574f",
		"manifest-000000000000000b":      "a86250b6508167edfcae1a9e2366dc795db7f3798aea6fd4aac4081027398c4b",
		"seg-000000000000000b-000-kv~4":  "8bd79c673264515ba6733b47e74eb6880fe22b93fb93580d67132a09f8b88545",
		"seg-000000000000000b-001-lbl~1": "b2fd5bbf7bad1f98ad60581c6978b56d3780259ad21cc4f49dfb97552c07e405",
	}
	if len(got) != len(want) {
		t.Errorf("directory holds %d files, want %d", len(got), len(want))
	}
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: sha256 %s, want %s", n, got[n], want[n])
		}
	}
}

// TestRefusedLoadInternsNothing: a write a replica refuses leaves the
// process-global intern table as it was.
func TestRefusedLoadInternsNothing(t *testing.T) {
	s, err := Load(dirBytesSrc)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReadOnly("leader:0")
	before := term.InternedCount()
	_, _, err = s.InsertFacts(`kv(refused_key, 1, "refused string", f(refused_val, [refused_elem])).`)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertFacts on a read-only System = %v, want ErrReadOnly", err)
	}
	if after := term.InternedCount(); after != before {
		t.Fatalf("a refused LOAD grew the intern table %d → %d", before, after)
	}
}
