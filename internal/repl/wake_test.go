package repl

// The shipper's wake-up contract: it reads the log when an epoch
// publishes and on heartbeats, never in between. Both tests turn
// heartbeats off (an hour apart on both ends), so every read and every
// delivery they see was caused by a publish.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldl/internal/wal"
)

// countingFS counts the directory lists and file reads a shipper makes.
type countingFS struct {
	*wal.MemFS
	ops atomic.Int64
}

func (c *countingFS) List(dir string) ([]string, error) {
	c.ops.Add(1)
	return c.MemFS.List(dir)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.ops.Add(1)
	return c.MemFS.ReadFile(name)
}

// startQuietFollower runs a follower of ld with heartbeats off in both
// directions, so only publishes move the stream.
func startQuietFollower(t *testing.T, ld *chaosLeader) *prefixModel {
	ld.ship.Heartbeat = time.Hour
	m := &prefixModel{t: t}
	f := &Follower{
		Dial:             ld.dial,
		Applied:          m.Applied,
		Apply:            m.Apply,
		HeartbeatTimeout: time.Hour,
		BackoffBase:      time.Millisecond,
		BackoffMax:       8 * time.Millisecond,
	}
	ctx, cancel := newTestContext(t)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); f.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		ld.closeAll()
		done.Wait()
	})
	return m
}

// waitApplied waits (bounded) for the follower to reach exactly epoch e.
func waitApplied(t *testing.T, m *prefixModel, e uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Applied() < e && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Applied(); got != e {
		t.Fatalf("follower at epoch %d, want %d", got, e)
	}
}

// TestShipperIdleReadsNothing: once the follower has caught up, an idle
// stream touches the log not at all until the next publish — a 20 ms
// poll would have listed and read the log about ten times in the window.
// It mostly sleeps, so it runs beside the chaos matrix.
func TestShipperIdleReadsNothing(t *testing.T) {
	t.Parallel()
	ld := newChaosLeader(t)
	cfs := &countingFS{MemFS: ld.fs}
	ld.ship.FS = cfs
	m := startQuietFollower(t, ld)
	for e := uint64(2); e <= 4; e++ {
		ld.append(e)
	}
	waitApplied(t, m, 4)
	time.Sleep(20 * time.Millisecond) // let a wake coalesced with the catch-up finish

	before := cfs.ops.Load()
	time.Sleep(200 * time.Millisecond)
	if n := cfs.ops.Load() - before; n != 0 {
		t.Errorf("idle shipper made %d log reads in 200ms, want 0", n)
	}
	ld.append(5)
	waitApplied(t, m, 5)
}

// TestShipperPublishRacingHeadRead lands a publish between the
// shipper's Changed and its read of Head — the read sees the old head,
// so only the wake-up can deliver the new epoch. Taking the channel
// after the read would lose the wake and stall the follower for an
// hour-long heartbeat.
func TestShipperPublishRacingHeadRead(t *testing.T) {
	ld := newChaosLeader(t)
	var armed atomic.Bool
	ld.ship.Head = func() uint64 {
		h := ld.head.Load()
		if armed.CompareAndSwap(true, false) {
			ld.append(h + 1)
		}
		return h
	}
	m := startQuietFollower(t, ld)
	ld.append(2)
	waitApplied(t, m, 2)

	armed.Store(true)
	ld.publish(2) // a publish with no new epoch, like a statistics refresh: wakes the shipper into the hook
	waitApplied(t, m, 3)
}
