package main

// End-to-end replication tests: a real leader and a real follower, each
// a full server over TCP, connected through the REPL verb. They cover
// the tentpole's serving contract — follower catch-up from the shipped
// log and from a checkpoint seed, bounded staleness under continuous
// writes, the read-only write redirect, replication lag in STATS, and
// manual failover via PROMOTE with byte-identical answers afterwards.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldl"
	"ldl/internal/repl"
	"ldl/internal/service"
)

// leaderAdvertise is deliberately NOT the leader's dial address: the
// redirect the replica hands out must be the address the leader
// advertises, proving the welcome line carried it end to end.
const leaderAdvertise = "ldl-leader.internal:7654"

// startLeader boots a durable leader server with test-fast heartbeats.
func startLeader(t *testing.T, dir string) (addr string, sys *ldl.System, shutdown func(time.Duration)) {
	t.Helper()
	sys, err := ldl.Load(serverSrc, ldl.WithStorageDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	addr, _, shutdown = startCustom(t, sys, service.Config{}, func(s *server) {
		s.advertise = leaderAdvertise
		s.shipHeartbeat = 20 * time.Millisecond
	})
	return addr, sys, shutdown
}

// startReplica boots a follower server replicating from leaderAddr.
func startReplica(t *testing.T, leaderAddr string, opts ...ldl.SystemOption) (addr string, sys *ldl.System, srv *server) {
	return startFollower(t, leaderAddr, followerCfg{}, opts...)
}

// followerCfg is the failover wiring of a test follower server.
type followerCfg struct {
	peers            []string
	autoPromoteAfter time.Duration
}

// startFollower boots a follower server with the full production
// wiring — term observation, peer re-targeting, optional auto-promote —
// mirroring what main() builds from -replica-of/-peers/-auto-promote-after.
func startFollower(t *testing.T, leaderAddr string, fc followerCfg, opts ...ldl.SystemOption) (addr string, sys *ldl.System, srv *server) {
	t.Helper()
	sys, err := ldl.Load(serverSrc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetReadOnly(leaderAddr)
	f := &repl.Follower{
		Target:           leaderAddr,
		Peers:            fc.peers,
		Applied:          sys.Epoch,
		Apply:            sys.ApplyReplicated,
		Term:             sys.Term,
		ObserveTerm:      func(tm uint64) { sys.ObserveTerm(tm) },
		AutoPromoteAfter: fc.autoPromoteAfter,
		Promote: func() {
			if _, _, err := sys.Promote(); err != nil {
				t.Errorf("auto-promote: %v", err)
			}
		},
		HeartbeatTimeout: 500 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	addr, srv, _ = startCustom(t, sys, service.Config{}, func(s *server) {
		s.follower = f
		s.stopFollower = cancel
		s.shipHeartbeat = 20 * time.Millisecond
		s.rywTimeout = 2 * time.Second
	})
	// Advertise the follower's own dial address: if it is ever promoted,
	// peers re-targeting to it must be told a reachable write address.
	srv.advertise = addr
	return addr, sys, srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// replCollect gathers the full responses of a fixed query set — the
// byte-identity probe used across leader, replica, and promoted replica.
func replCollect(t *testing.T, c *client) string {
	t.Helper()
	var all []string
	for _, goal := range []string{"anc(X, Y)", "sg(b1, Y)", "anc(r0, Y)"} {
		status, rows, err := c.query(goal)
		if err != nil || !strings.HasPrefix(status, "OK ") {
			t.Fatalf("QUERY %s = %q, %v", goal, status, err)
		}
		all = append(all, status)
		all = append(all, rows...)
	}
	return strings.Join(all, "\n")
}

// TestReplicaServesLeaderWrites: the follower tracks a live leader
// under continuous LOADs, keeps answering queries the whole time,
// converges to identical answers, reports its lag in STATS, and
// redirects writes with the parseable read-only line.
func TestReplicaServesLeaderWrites(t *testing.T) {
	lAddr, lsys, _ := startLeader(t, t.TempDir())
	rAddr, rsys, _ := startReplica(t, lAddr)

	lc := dial(t, lAddr)
	rc := dial(t, rAddr)

	// Continuous writer traffic on the leader while the replica serves:
	// every replica query during the storm must answer, never error —
	// degraded means stale, not down.
	for i := 0; i < 6; i++ {
		got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i))
		if err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
		if status, _, err := rc.query("sg(b1, Y)"); err != nil || !strings.HasPrefix(status, "OK ") {
			t.Fatalf("replica query during load %d: %q, %v", i, status, err)
		}
	}

	waitFor(t, "replica catch-up", func() bool { return rsys.Epoch() == lsys.Epoch() })

	if want, got := replCollect(t, lc), replCollect(t, rc); got != want {
		t.Fatalf("replica answers differ from leader:\nleader:\n%s\nreplica:\n%s", want, got)
	}

	// The write redirect names the leader's *advertised* address.
	if got, err := rc.roundTrip("LOAD par(x, y)."); err != nil || got != "ERR read-only leader="+leaderAdvertise {
		t.Fatalf("replica LOAD = %q, %v; want ERR read-only leader=%s", got, err, leaderAdvertise)
	}

	kv, err := rc.stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["role"] != "replica" || kv["repl_leader"] != leaderAdvertise {
		t.Errorf("replica STATS role=%q repl_leader=%q", kv["role"], kv["repl_leader"])
	}
	if kv["repl_connected"] != "1" || kv["repl_lag"] != "0" {
		t.Errorf("replica STATS connected=%q lag=%q, want 1 and 0", kv["repl_connected"], kv["repl_lag"])
	}
	if kv["repl_applied"] != strconv.FormatUint(lsys.Epoch(), 10) {
		t.Errorf("replica STATS repl_applied=%q, want %d", kv["repl_applied"], lsys.Epoch())
	}

	// Leader-side health keys from the durability satellite.
	lkv, err := lc.stats()
	if err != nil {
		t.Fatal(err)
	}
	if lkv["role"] != "leader" || lkv["wal_wedged"] != "0" || lkv["wal_checkpoint_failures"] != "0" {
		t.Errorf("leader STATS role=%q wal_wedged=%q wal_checkpoint_failures=%q", lkv["role"], lkv["wal_wedged"], lkv["wal_checkpoint_failures"])
	}
	if n, _ := strconv.Atoi(lkv["wal_segment_bytes"]); n <= 0 {
		t.Errorf("leader STATS wal_segment_bytes=%q, want > 0", lkv["wal_segment_bytes"])
	}
}

// TestReplicaBootsFromShippedCheckpoint: the leader checkpoints (which
// retires the log prefix) before the follower ever connects, so catch-up
// can only happen through a shipped checkpoint seed.
func TestReplicaBootsFromShippedCheckpoint(t *testing.T) {
	lAddr, lsys, _ := startLeader(t, t.TempDir())
	lc := dial(t, lAddr)
	for i := 0; i < 3; i++ {
		if got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i)); err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	if err := lsys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One post-checkpoint batch, so the seed alone is not enough.
	if got, err := lc.roundTrip("LOAD par(r3, b1). par(b1, rr3)."); err != nil || !strings.HasPrefix(got, "OK 2 ") {
		t.Fatalf("post-checkpoint LOAD = %q, %v", got, err)
	}

	rAddr, rsys, _ := startReplica(t, lAddr)
	waitFor(t, "replica catch-up via seed", func() bool { return rsys.Epoch() == lsys.Epoch() })

	rc := dial(t, rAddr)
	if want, got := replCollect(t, lc), replCollect(t, rc); got != want {
		t.Fatalf("seeded replica answers differ:\nleader:\n%s\nreplica:\n%s", want, got)
	}
	kv, err := rc.stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["repl_seeds"] != "1" {
		t.Errorf("repl_seeds = %q, want 1 (catch-up required exactly one checkpoint seed)", kv["repl_seeds"])
	}
}

// TestStorageTierSeedsFollowers: every durable node keeps its base in
// segments, so every reseed is served from a manifest. A leader that
// has flushed seeds a fresh durable follower R1; R1 flushes too, and a
// fresh R2 chained off R1 must be seeded from R1's manifest — then both
// keep tailing the live log.
func TestStorageTierSeedsFollowers(t *testing.T) {
	lAddr, lsys, _ := startLeader(t, t.TempDir())
	lc := dial(t, lAddr)
	load := func(i int) {
		t.Helper()
		if got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i)); err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	for i := 0; i < 3; i++ {
		load(i)
	}
	if err := lsys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(3)

	r1Addr, r1sys, _ := startReplica(t, lAddr, ldl.WithStorageDir(t.TempDir()))
	waitFor(t, "R1 catch-up via the leader's manifest", func() bool { return r1sys.Epoch() == lsys.Epoch() })
	if err := r1sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r2Addr, r2sys, _ := startReplica(t, r1Addr)
	waitFor(t, "R2 catch-up via R1's manifest", func() bool { return r2sys.Epoch() == lsys.Epoch() })
	load(4)
	waitFor(t, "chain tail after the seeds", func() bool { return r2sys.Epoch() == lsys.Epoch() })

	rc2 := dial(t, r2Addr)
	if want, got := replCollect(t, lc), replCollect(t, rc2); got != want {
		t.Fatalf("chain-seeded replica answers differ:\nleader:\n%s\nR2:\n%s", want, got)
	}
	for name, addr := range map[string]string{"R1": r1Addr, "R2": r2Addr} {
		kv, err := dial(t, addr).stats()
		if err != nil {
			t.Fatal(err)
		}
		if kv["repl_seeds"] != "1" {
			t.Errorf("%s repl_seeds = %q, want 1", name, kv["repl_seeds"])
		}
	}
}

// TestPromoteFailover: kill the leader, PROMOTE the (durable) replica,
// and demand the promoted server answer byte-identically to the dead
// leader's acknowledged state — then accept writes as the new leader.
func TestPromoteFailover(t *testing.T) {
	lAddr, lsys, lShutdown := startLeader(t, t.TempDir())
	rAddr, rsys, _ := startReplica(t, lAddr, ldl.WithStorageDir(t.TempDir()))

	lc := dial(t, lAddr)
	for i := 0; i < 4; i++ {
		if got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i)); err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	want := replCollect(t, lc)
	leaderEpoch := lsys.Epoch()
	waitFor(t, "replica catch-up", func() bool { return rsys.Epoch() == leaderEpoch })

	// The leader dies: listener closed, connections drained, log closed.
	lShutdown(time.Second)
	if err := lsys.Close(); err != nil {
		t.Fatal(err)
	}

	rc := dial(t, rAddr)
	got, err := rc.roundTrip("PROMOTE")
	if err != nil || got != fmt.Sprintf("OK promoted epoch=%d term=2", leaderEpoch) {
		t.Fatalf("PROMOTE = %q, %v; want OK promoted epoch=%d term=2", got, err, leaderEpoch)
	}
	// Byte-identical answers to everything the dead leader acknowledged.
	if got := replCollect(t, rc); got != want {
		t.Fatalf("promoted replica answers differ:\nleader before death:\n%s\npromoted:\n%s", want, got)
	}
	// The promoted server is a leader now: writes land, epochs continue
	// after the applied prefix, STATS reflects the role change.
	if got, err := rc.roundTrip("LOAD par(post, b1)."); err != nil || got != fmt.Sprintf("OK 1 epoch=%d term=2", leaderEpoch+1) {
		t.Fatalf("post-promotion LOAD = %q, %v; want OK 1 epoch=%d term=2", got, err, leaderEpoch+1)
	}
	kv, err := rc.stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["role"] != "leader" {
		t.Errorf("post-promotion role = %q, want leader", kv["role"])
	}
	// A second PROMOTE is refused: already a leader.
	if got, err := rc.roundTrip("PROMOTE"); err != nil || got != "ERR not a replica" {
		t.Fatalf("second PROMOTE = %q, %v; want ERR not a replica", got, err)
	}
}

// TestReplVerbRefusals pins the REPL verb's error contract.
func TestReplVerbRefusals(t *testing.T) {
	// A non-durable server has no log to ship.
	addr := startServer(t, service.Config{})
	c := dial(t, addr)
	if got, err := c.roundTrip("REPL 1"); err != nil || !strings.Contains(got, "durable") {
		t.Fatalf("REPL on non-durable server = %q, %v; want ERR ... durable ...", got, err)
	}
	c2 := dial(t, addr)
	if got, err := c2.roundTrip("REPL nonsense"); err != nil || !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("malformed REPL = %q, %v; want ERR", got, err)
	}

	// The stdin loop cannot hand over a connection.
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(sys, service.Config{})
	var out strings.Builder
	srv.handle(strings.NewReader("REPL 1\n"), &out)
	if got := strings.TrimSpace(out.String()); got != "ERR REPL requires a TCP connection" {
		t.Fatalf("stdin REPL = %q", got)
	}
}

// TestThreeNodeFailover is the acceptance scenario: leader L, durable
// follower R1, and follower R2 configured with -peers naming R1. L is
// killed, an operator promotes R1, and R2 must re-target to R1 on its
// own — then a write accepted by R1 must be readable on R2 through
// "QUERY ... wait=<E>" (read-your-writes across the failover).
func TestThreeNodeFailover(t *testing.T) {
	lAddr, lsys, lShutdown := startLeader(t, t.TempDir())
	r1Addr, r1sys, _ := startFollower(t, lAddr, followerCfg{}, ldl.WithStorageDir(t.TempDir()))
	r2Addr, r2sys, _ := startFollower(t, lAddr, followerCfg{peers: []string{r1Addr}})

	lc := dial(t, lAddr)
	for i := 0; i < 4; i++ {
		if got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i)); err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	leaderEpoch := lsys.Epoch()
	waitFor(t, "both followers caught up", func() bool {
		return r1sys.Epoch() == leaderEpoch && r2sys.Epoch() == leaderEpoch
	})

	// The leader dies without warning.
	lShutdown(time.Second)
	if err := lsys.Close(); err != nil {
		t.Fatal(err)
	}

	// Operator promotes R1: terms 1 -> 2, persisted in R1's WAL.
	rc1 := dial(t, r1Addr)
	if got, err := rc1.roundTrip("PROMOTE"); err != nil || got != fmt.Sprintf("OK promoted epoch=%d term=2", leaderEpoch) {
		t.Fatalf("PROMOTE R1 = %q, %v; want OK promoted epoch=%d term=2", got, err, leaderEpoch)
	}

	// R2 notices the dead leader, walks its peer list, and re-attaches
	// to R1 with no operator involvement.
	rc2 := dial(t, r2Addr)
	waitFor(t, "R2 re-target to R1", func() bool {
		kv, err := rc2.stats()
		if err != nil {
			return false
		}
		return kv["repl_target"] == r1Addr && kv["repl_connected"] == "1"
	})

	// Read-your-writes across the new chain: a write acknowledged by R1
	// names its epoch, and a wait=<E> query on R2 observes it.
	got, err := rc1.roundTrip("LOAD par(post, postkid).")
	if err != nil || got != fmt.Sprintf("OK 1 epoch=%d term=2", leaderEpoch+1) {
		t.Fatalf("post-failover LOAD on R1 = %q, %v; want OK 1 epoch=%d term=2", got, err, leaderEpoch+1)
	}
	status, rows, err := rc2.query(fmt.Sprintf("anc(post, Y) wait=%d", leaderEpoch+1))
	if err != nil || status != "OK 1" {
		t.Fatalf("wait-query on R2 = %q, %v (rows %v); want OK 1", status, err, rows)
	}
	if len(rows) != 1 || !strings.Contains(rows[0], "postkid") {
		t.Fatalf("wait-query rows = %v, want the row written on R1", rows)
	}

	kv, err := rc2.stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["term"] != "2" {
		t.Errorf("R2 STATS term = %q, want 2 (adopted from R1's stream)", kv["term"])
	}
	if n, _ := strconv.Atoi(kv["repl_retargets"]); n < 1 {
		t.Errorf("R2 STATS repl_retargets = %q, want >= 1", kv["repl_retargets"])
	}
}

// TestAutoPromoteFailover: a durable follower with -auto-promote-after
// set self-promotes once the leader stays unreachable past the deadman
// deadline, and then accepts writes under the new term.
func TestAutoPromoteFailover(t *testing.T) {
	lAddr, lsys, lShutdown := startLeader(t, t.TempDir())
	rAddr, rsys, _ := startFollower(t, lAddr, followerCfg{autoPromoteAfter: 200 * time.Millisecond}, ldl.WithStorageDir(t.TempDir()))

	lc := dial(t, lAddr)
	for i := 0; i < 3; i++ {
		if got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i)); err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	leaderEpoch := lsys.Epoch()
	waitFor(t, "follower catch-up", func() bool { return rsys.Epoch() == leaderEpoch })

	lShutdown(time.Second)
	if err := lsys.Close(); err != nil {
		t.Fatal(err)
	}

	// No operator: the deadman fires after the probes keep coming back
	// empty, and the follower promotes itself.
	waitFor(t, "auto-promotion", func() bool { ro, _ := rsys.ReadOnly(); return !ro })
	if rsys.Term() != 2 {
		t.Errorf("auto-promoted term = %d, want 2", rsys.Term())
	}

	rc := dial(t, rAddr)
	if got, err := rc.roundTrip("LOAD par(post, b1)."); err != nil || got != fmt.Sprintf("OK 1 epoch=%d term=2", leaderEpoch+1) {
		t.Fatalf("post-auto-promotion LOAD = %q, %v; want OK 1 epoch=%d term=2", got, err, leaderEpoch+1)
	}
	kv, err := rc.stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["role"] != "leader" || kv["repl_auto_promotions"] != "1" {
		t.Errorf("STATS role=%q repl_auto_promotions=%q, want leader and 1", kv["role"], kv["repl_auto_promotions"])
	}
}

// TestChainedReplication: followers serve REPL themselves, so a replica
// can replicate from another replica. L -> R1 -> R2, with R2's write
// redirect still naming the root leader's advertised address (the
// welcome line forwards it hop by hop).
func TestChainedReplication(t *testing.T) {
	lAddr, lsys, _ := startLeader(t, t.TempDir())
	r1Addr, _, r1srv := startReplica(t, lAddr, ldl.WithStorageDir(t.TempDir()))
	// Let R1 finish its handshake with L (learning the advertised leader)
	// before R2 attaches, so R1's welcome to R2 forwards the real address.
	waitFor(t, "R1 learns the advertised leader", func() bool {
		return r1srv.follower.Stats().Leader == leaderAdvertise
	})
	r2Addr, r2sys, _ := startReplica(t, r1Addr)

	lc := dial(t, lAddr)
	for i := 0; i < 5; i++ {
		if got, err := lc.roundTrip(fmt.Sprintf("LOAD par(r%d, b1). par(b1, rr%d).", i, i)); err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	waitFor(t, "chain catch-up", func() bool { return r2sys.Epoch() == lsys.Epoch() })

	rc2 := dial(t, r2Addr)
	if want, got := replCollect(t, lc), replCollect(t, rc2); got != want {
		t.Fatalf("tail-of-chain answers differ:\nleader:\n%s\nR2:\n%s", want, got)
	}
	// The redirect R2 hands out is the ROOT leader, not R1: R1's welcome
	// forwarded the address it would redirect writes to.
	if got, err := rc2.roundTrip("LOAD par(x, y)."); err != nil || got != "ERR read-only leader="+leaderAdvertise {
		t.Fatalf("R2 LOAD = %q, %v; want ERR read-only leader=%s", got, err, leaderAdvertise)
	}
}

// TestHelloDeposesStaleLeader: the HELLO probe reports role, term, head
// epoch, and advertised leader — and a probe carrying a higher term
// fences a live leader into read-only (it has provably been superseded).
func TestHelloDeposesStaleLeader(t *testing.T) {
	lAddr, lsys, _ := startLeader(t, t.TempDir())
	lc := dial(t, lAddr)

	got, err := lc.roundTrip("HELLO")
	if err != nil {
		t.Fatal(err)
	}
	p, err := repl.ParseProbeReply(got)
	if err != nil {
		t.Fatalf("HELLO reply %q: %v", got, err)
	}
	if p.Role != repl.RoleLeader || p.Term != 1 || p.Leader != leaderAdvertise || p.Epoch != lsys.Epoch() {
		t.Fatalf("HELLO reply = %+v, want leader/term 1/epoch %d/%s", p, lsys.Epoch(), leaderAdvertise)
	}

	// A probe from the future: this leader has been superseded. It must
	// latch read-only before answering.
	got, err = lc.roundTrip("HELLO term=9")
	if err != nil {
		t.Fatal(err)
	}
	if p, err = repl.ParseProbeReply(got); err != nil || p.Role != repl.RoleReplica || p.Term != 9 {
		t.Fatalf("deposing HELLO reply = %q (%+v, %v), want role=replica term=9", got, p, err)
	}
	if got, err := lc.roundTrip("LOAD par(x, y)."); err != nil || !strings.HasPrefix(got, "ERR read-only") {
		t.Fatalf("LOAD on deposed leader = %q, %v; want ERR read-only", got, err)
	}
	kv, err := lc.stats()
	if err != nil {
		t.Fatal(err)
	}
	if kv["role"] != "replica" || kv["term"] != "9" || kv["repl_fenced"] != "1" {
		t.Errorf("deposed STATS role=%q term=%q repl_fenced=%q, want replica/9/1", kv["role"], kv["term"], kv["repl_fenced"])
	}
}

// TestQueryWaitLagging pins the bounded read-your-writes failure: a
// wait=<E> the replica cannot reach inside rywTimeout fails with the
// machine-readable lag, and a reachable wait succeeds.
func TestQueryWaitLagging(t *testing.T) {
	lAddr, lsys, _ := startLeader(t, t.TempDir())
	rAddr, rsys, rsrv := startReplica(t, lAddr)

	lc := dial(t, lAddr)
	if got, err := lc.roundTrip("LOAD par(r0, b1). par(b1, rr0)."); err != nil || !strings.HasPrefix(got, "OK 2 ") {
		t.Fatalf("LOAD = %q, %v", got, err)
	}
	waitFor(t, "replica catch-up", func() bool { return rsys.Epoch() == lsys.Epoch() })
	// Shrink the wait budget before dialing: this test wants the timeout.
	rsrv.rywTimeout = 20 * time.Millisecond

	rc := dial(t, rAddr)
	want := rsys.Epoch() + 5
	status, _, err := rc.query(fmt.Sprintf("anc(X, Y) wait=%d", want))
	if err != nil || status != "ERR lagging behind=5" {
		t.Fatalf("unreachable wait = %q, %v; want ERR lagging behind=5", status, err)
	}
	// A wait at the current epoch answers immediately.
	status, rows, err := rc.query(fmt.Sprintf("anc(X, Y) wait=%d", rsys.Epoch()))
	if err != nil || !strings.HasPrefix(status, "OK ") || len(rows) == 0 {
		t.Fatalf("satisfied wait = %q, %v (%d rows); want OK with rows", status, err, len(rows))
	}
	// Malformed wait counts are refused, not treated as goal text.
	if status, _, err := rc.query("anc(X, Y) wait=oops"); err != nil || !strings.HasPrefix(status, "ERR ") {
		t.Fatalf("malformed wait = %q, %v; want ERR", status, err)
	}
}
