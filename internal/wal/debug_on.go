//go:build ldldebug

package wal

// Build with -tags ldldebug to verify, on every record the log writes,
// the invariant recovery rests on: a framed record must read back as
// exactly the batch that was encoded (same epoch, same relations, same
// rows, ID for ID). A codec asymmetry would otherwise surface
// only after a crash, as silently different recovered facts; this mode
// catches it at append time.

import (
	"fmt"
)

// debugCheckRecord re-reads a just-encoded frame and compares it
// structurally against the source batch.
func debugCheckRecord(frame []byte, b Batch) {
	got, n, err := ReadRecord(frame)
	if err != nil {
		panic(fmt.Sprintf("wal[ldldebug]: encoded record does not decode: %v", err))
	}
	if n != len(frame) {
		panic(fmt.Sprintf("wal[ldldebug]: encoded record consumed %d of %d bytes", n, len(frame)))
	}
	if !batchEqual(got, b) {
		panic(fmt.Sprintf("wal[ldldebug]: record round-trip mismatch for epoch %d", b.Epoch))
	}
}
