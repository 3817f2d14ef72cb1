package wal

// FuzzReadRecord: the record decoder is the recovery path's attack
// surface — it reads whatever a crash (or bit rot, or a hostile file)
// left on disk. Arbitrary bytes must never panic, never over-allocate
// past the frame, and any batch the decoder does yield must survive the
// encode→decode round trip unchanged.

import (
	"testing"

	"ldl/internal/term"
)

func FuzzReadRecord(f *testing.F) {
	// Seed with valid records of increasing shape complexity.
	seed := []Batch{
		{Epoch: 2, Rels: []RelFacts{relFacts("par/2", 2, [][]term.Term{
			{term.Atom("john"), term.Atom("mary")},
		})}},
		{Epoch: 3, Rels: []RelFacts{relFacts("t/3", 3, [][]term.Term{
			{term.Int(-7), term.Str("a\x00b"), term.Comp{Functor: "f", Args: []term.Term{term.Atom("x"), term.Int(1)}}},
			{term.Int(42), term.Str(""), term.List(term.Atom("a"), term.Atom("b"))},
		})}},
		{Epoch: 9, Rels: []RelFacts{
			relFacts("empty/1", 1, nil),
			relFacts("p/1", 1, [][]term.Term{{term.Atom("k")}}),
		}},
		{Epoch: 4, Term: 3, Rels: []RelFacts{relFacts("p/1", 1, [][]term.Term{{term.Atom("t")}})}},
		{Kind: RecTerm, Term: 7, Epoch: 12},
		{Kind: RecTerm, Term: ^uint64(0), Epoch: 1},
	}
	for _, b := range seed {
		enc, err := AppendRecord(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Also seed the payload with a broken checksum and a truncation.
		bad := append([]byte(nil), enc...)
		bad[5] ^= 0xFF
		f.Add(bad)
		f.Add(enc[:len(enc)-3])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := ReadRecord(data)
		if err != nil {
			return
		}
		if n < frameHeader || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Whatever decoded must re-encode and decode back to itself.
		enc, err := AppendRecord(nil, b)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		b2, n2, err := ReadRecord(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-encoded batch does not decode: %v (consumed %d of %d)", err, n2, len(enc))
		}
		if !batchEqual(b, b2) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", b, b2)
		}
	})
}
