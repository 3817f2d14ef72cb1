package repl

// The chaos matrix: every (fault mode × injection point) cell wraps the
// first follower connection in a FaultConn, runs a fixed leader
// schedule (six batches with a checkpoint in the middle, so reconnects
// can hit the reseed path), and requires the follower to converge to
// the full history — with a model applier that asserts, at every single
// apply, that the follower's state is an exact epoch-prefix of the
// leader's acknowledged batches. The injection point is a frame index:
// the shipper sends each frame with one Write, so cell (mode, n) faults
// exactly the n-th frame of the first connection.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldl/internal/segment"
	"ldl/internal/term"
	"ldl/internal/wal"
)

const dir = "data"

// mkBatch builds the leader batch for epoch e: two distinct tuples in
// par/2, so every epoch's contribution is distinguishable.
func mkBatch(e uint64) wal.Batch {
	a, b, n := term.Intern(term.Atom(fmt.Sprintf("e%d_a", e))), term.Intern(term.Atom(fmt.Sprintf("e%d_b", e))), term.Intern(term.Int(int64(e)))
	return wal.Batch{Epoch: e, Rels: []wal.RelFacts{{Tag: "par/2", Arity: 2, Rows: 2, Cols: [][]term.ID{{a, b}, {n, n}}}}}
}

// appendSync appends b and commits it under the log's fsync policy.
func appendSync(l *wal.Log, b wal.Batch) error {
	lsn, err := l.AppendCommit(b)
	if err != nil {
		return err
	}
	return l.Commit(lsn)
}

// tupleKeys renders a batch's tuples as set keys.
func tupleKeys(b wal.Batch) []string {
	var out []string
	for _, r := range b.Rels {
		for i := 0; i < r.Rows; i++ {
			out = append(out, fmt.Sprintf("%s|%v|%v", r.Tag, term.InternedTerm(r.Cols[0][i]), term.InternedTerm(r.Cols[1][i])))
		}
	}
	return out
}

// cumulative is the oracle: the exact fact state after every batch in
// [2, epoch].
func cumulative(epoch uint64) map[string]bool {
	out := map[string]bool{}
	for e := uint64(2); e <= epoch; e++ {
		for _, k := range tupleKeys(mkBatch(e)) {
			out[k] = true
		}
	}
	return out
}

// chaosLeader is an in-process leader: a real WAL on MemFS, a Shipper,
// and a dialer that manufactures net.Pipe connections served by a
// handshake + Serve goroutine. arm wraps the next accepted connection
// (the fault-injection hook).
type chaosLeader struct {
	t    *testing.T
	fs   *wal.MemFS
	log  *wal.Log
	head atomic.Uint64
	term atomic.Uint64
	ship *Shipper

	// pub is the publish broadcast behind the Shipper's Changed hook,
	// closed by every head advance, like ldl.System's.
	pubMu sync.Mutex
	pub   chan struct{}

	mu    sync.Mutex
	conns []net.Conn
	arm   func(net.Conn) net.Conn
	// onHello, when set, runs after the welcome and before shipping
	// starts — between the follower's hello and its first frame.
	onHello func()
}

func newChaosLeader(t *testing.T) *chaosLeader {
	fs := wal.NewMemFS()
	log, _, err := wal.Open(dir, wal.Options{FS: fs}, func(wal.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ld := &chaosLeader{t: t, fs: fs, log: log}
	ld.head.Store(1)
	ld.term.Store(1)
	ld.ship = &Shipper{
		Dir: dir, FS: fs,
		Head:      ld.head.Load,
		Changed:   ld.changed,
		Term:      ld.term.Load,
		Advertise: "leader:9999",
		Heartbeat: 15 * time.Millisecond,
	}
	t.Cleanup(ld.closeAll)
	return ld
}

func (ld *chaosLeader) closeAll() {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	for _, c := range ld.conns {
		c.Close()
	}
	ld.conns = nil
}

func (ld *chaosLeader) changed() <-chan struct{} {
	ld.pubMu.Lock()
	defer ld.pubMu.Unlock()
	if ld.pub == nil {
		ld.pub = make(chan struct{})
	}
	return ld.pub
}

// publish advances the head to e and wakes every Changed waiter.
func (ld *chaosLeader) publish(e uint64) {
	ld.head.Store(e)
	ld.pubMu.Lock()
	defer ld.pubMu.Unlock()
	if ld.pub != nil {
		close(ld.pub)
		ld.pub = nil
	}
}

// append logs one batch and publishes its epoch — the leader
// acknowledging a write.
func (ld *chaosLeader) append(e uint64) {
	if err := appendSync(ld.log, mkBatch(e)); err != nil {
		ld.t.Fatal(err)
	}
	ld.publish(e)
}

// appendT logs one batch stamped with the leader's current term — the
// shape every batch has once terms exist; the fencing cells depend on
// the stamp.
func (ld *chaosLeader) appendT(e uint64) {
	b := mkBatch(e)
	b.Term = ld.term.Load()
	if err := appendSync(ld.log, b); err != nil {
		ld.t.Fatal(err)
	}
	ld.publish(e)
}

// checkpoint flushes the cumulative state at e as one segment, commits
// the manifest naming it, retires the log prefix and sweeps the segments
// the manifest dropped — so a follower behind e can only catch up via
// reseed. It may run on a shipper goroutine, hence Errorf, not Fatal.
func (ld *chaosLeader) checkpoint(e uint64) {
	if err := ld.log.Rotate(e); err != nil {
		ld.t.Errorf("rotate: %v", err)
		return
	}
	cols := make([][]term.ID, 2)
	for i := uint64(2); i <= e; i++ {
		for c, col := range mkBatch(i).Rels[0].Cols {
			cols[c] = append(cols[c], col...)
		}
	}
	name, rows := segment.SegName(e, "par/2", 0), len(cols[0])
	man := &segment.Manifest{Epoch: e, Rels: []segment.RelEntry{{Tag: "par/2", Arity: 2, Rows: rows, Segments: []string{name}}}}
	if err := segment.Write(ld.fs, dir, name, "par/2", 2, cols, rows); err != nil {
		ld.t.Errorf("segment: %v", err)
		return
	}
	if err := segment.WriteManifest(ld.fs, dir, man); err != nil {
		ld.t.Errorf("manifest: %v", err)
		return
	}
	ld.log.Retire(e)
	segment.Sweep(ld.fs, dir, man)
}

// dial is the Follower.Dial hook: one net.Pipe per call, server side
// (possibly fault-wrapped) handled by a handshake+Serve goroutine. The
// goroutine answers both verbs the follower sends — REPL (stream) and
// HELLO (probe) — like the real server front end.
func (ld *chaosLeader) dial(string) (net.Conn, error) {
	cli, srv := net.Pipe()
	var conn net.Conn = srv
	ld.mu.Lock()
	if ld.arm != nil {
		conn = ld.arm(srv)
		ld.arm = nil
	}
	ld.conns = append(ld.conns, conn, cli)
	ld.mu.Unlock()
	go func() {
		defer conn.Close()
		r := bufio.NewReader(conn)
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "HELLO") {
			if _, err := ParseProbe(line); err != nil {
				return
			}
			fmt.Fprintf(conn, "%s\n", ProbeReplyLine(Probe{
				Role: RoleLeader, Term: ld.term.Load(),
				Epoch: ld.head.Load(), Leader: ld.ship.Advertise,
			}))
			return
		}
		from, _, err := ParseHello(line)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(conn, "%s\n", WelcomeLine(ld.head.Load(), ld.ship.Advertise, ld.term.Load())); err != nil {
			return
		}
		if ld.onHello != nil {
			ld.onHello()
		}
		ld.ship.Serve(conn, from)
	}()
	return cli, nil
}

// prefixModel is the follower's apply target: it mirrors the epoch-
// dedup rule of ldl.System.ApplyReplicated and asserts after EVERY
// apply that the accumulated state equals the oracle's prefix at the
// applied epoch — the chaos matrix's core invariant, checked at every
// step of every fault schedule, not just at convergence.
type prefixModel struct {
	t  *testing.T
	mu sync.Mutex

	applied uint64
	state   map[string]bool
}

func (m *prefixModel) Applied() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

func (m *prefixModel) Apply(b wal.Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Epoch <= m.applied {
		return nil // duplicate delivery: skip, exactly like ApplyReplicated
	}
	if m.state == nil {
		m.state = map[string]bool{}
	}
	for _, k := range tupleKeys(b) {
		m.state[k] = true
	}
	m.applied = b.Epoch
	want := cumulative(b.Epoch)
	if len(m.state) != len(want) {
		m.t.Errorf("after applying epoch %d: %d tuples, want %d", b.Epoch, len(m.state), len(want))
	}
	for k := range want {
		if !m.state[k] {
			m.t.Errorf("after applying epoch %d: missing %s", b.Epoch, k)
		}
	}
	return nil
}

// runChaosCell runs the standard schedule with one fault armed on the
// first connection and requires convergence to epoch 7.
func runChaosCell(t *testing.T, mode FaultMode, failAt int) {
	ld := newChaosLeader(t)
	var fault *FaultConn
	ld.arm = func(c net.Conn) net.Conn {
		fault = NewFaultConn(c, mode, failAt)
		return fault
	}
	m := &prefixModel{t: t}
	f := &Follower{
		Dial:             ld.dial,
		Applied:          m.Applied,
		Apply:            m.Apply,
		HeartbeatTimeout: 60 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       8 * time.Millisecond,
	}
	ctx, cancel := newTestContext(t)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); f.Run(ctx) }()

	// The schedule: epochs 2..7, checkpoint at 4 (retiring 2..4, so a
	// follower interrupted early reconnects onto the reseed path).
	for e := uint64(2); e <= 7; e++ {
		ld.append(e)
		if e == 4 {
			ld.checkpoint(4)
		}
		time.Sleep(2 * time.Millisecond) // let shipping interleave with appends
	}

	deadline := time.Now().Add(10 * time.Second)
	for m.Applied() != 7 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Applied(); got != 7 {
		t.Fatalf("follower stuck at epoch %d (fault %s at frame %d, fired=%v, stats=%+v)",
			got, mode, failAt, fault != nil && fault.Fired(), f.Stats())
	}
	cancel()
	ld.closeAll()
	done.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	want := cumulative(7)
	if len(m.state) != len(want) {
		t.Errorf("converged state has %d tuples, want %d", len(m.state), len(want))
	}
}

func TestChaosMatrix(t *testing.T) {
	t.Parallel()
	for _, mode := range []FaultMode{FaultDropMidFrame, FaultStall, FaultCorrupt, FaultDuplicate} {
		for failAt := 1; failAt <= 8; failAt++ {
			mode, failAt := mode, failAt
			t.Run(fmt.Sprintf("%s/frame%d", mode, failAt), func(t *testing.T) {
				runChaosCell(t, mode, failAt)
			})
		}
	}
}

// TestChaosRepeatedFaults arms a fresh fault on EVERY connection for a
// while — the follower must still converge once the faults stop.
func TestChaosRepeatedFaults(t *testing.T) {
	ld := newChaosLeader(t)
	var dials atomic.Int64
	armEach := func() {
		ld.mu.Lock()
		defer ld.mu.Unlock()
		n := dials.Add(1)
		if n <= 6 { // first six connections each die on an early frame
			mode := []FaultMode{FaultDropMidFrame, FaultCorrupt, FaultDuplicate}[n%3]
			ld.arm = func(c net.Conn) net.Conn { return NewFaultConn(c, mode, int(n%3)+1) }
		}
	}
	m := &prefixModel{t: t}
	baseDial := ld.dial
	f := &Follower{
		Dial:             func(addr string) (net.Conn, error) { armEach(); return baseDial(addr) },
		Applied:          m.Applied,
		Apply:            m.Apply,
		HeartbeatTimeout: 60 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       8 * time.Millisecond,
	}
	ctx, cancel := newTestContext(t)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); f.Run(ctx) }()

	for e := uint64(2); e <= 9; e++ {
		ld.append(e)
		if e == 5 {
			ld.checkpoint(5)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Applied() != 9 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Applied(); got != 9 {
		t.Fatalf("follower stuck at epoch %d after repeated faults (stats=%+v)", got, f.Stats())
	}
	st := f.Stats()
	if st.Dials < 2 {
		t.Errorf("expected reconnects, stats=%+v", st)
	}
	cancel()
	ld.closeAll()
	done.Wait()
}

// readHookFS runs hook before the first read of a file whose name
// contains match — the seam that lands a flush between the ship
// planner's manifest read and its segment opens.
type readHookFS struct {
	*wal.MemFS
	match string
	once  sync.Once
	hook  func()
}

func (h *readHookFS) ReadFile(name string) ([]byte, error) {
	if strings.Contains(name, h.match) {
		h.once.Do(h.hook)
	}
	return h.MemFS.ReadFile(name)
}

// TestChaosFlushDuringSeedPlan races a flush against a fresh follower's
// reseed: the leader has flushed at 4 (retiring 2..4) and logged 5..6
// when the follower connects, and a second flush at 6 — which sweeps
// the segment manifest-4 names — lands either between the hello and the
// seed frame, or between the planner's manifest read and its segment
// opens (the plan fails, the shipper drops the connection, the follower
// reconnects). Either way the follower must be seeded once, from a
// whole manifest, and stay an exact epoch-prefix at every apply.
func TestChaosFlushDuringSeedPlan(t *testing.T) {
	for _, cell := range []string{"hello", "manifest-read"} {
		t.Run(cell, func(t *testing.T) {
			ld := newChaosLeader(t)
			for e := uint64(2); e <= 6; e++ {
				ld.append(e)
				if e == 4 {
					ld.checkpoint(4)
				}
			}
			var fired atomic.Bool
			race := func() { fired.Store(true); ld.checkpoint(6) }
			if cell == "hello" {
				ld.onHello = sync.OnceFunc(race)
			} else {
				ld.ship.FS = &readHookFS{MemFS: ld.fs, match: "/seg-", hook: race}
			}
			m := &prefixModel{t: t}
			f := &Follower{
				Dial:             ld.dial,
				Applied:          m.Applied,
				Apply:            m.Apply,
				HeartbeatTimeout: 60 * time.Millisecond,
				BackoffBase:      time.Millisecond,
				BackoffMax:       8 * time.Millisecond,
			}
			ctx, cancel := newTestContext(t)
			var done sync.WaitGroup
			done.Add(1)
			go func() { defer done.Done(); f.Run(ctx) }()

			deadline := time.Now().Add(10 * time.Second)
			for m.Applied() != 6 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			ld.append(7)
			for m.Applied() != 7 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := m.Applied(); got != 7 || !fired.Load() {
				t.Fatalf("follower at epoch %d, flush fired=%v (stats=%+v)", got, fired.Load(), f.Stats())
			}
			if st := f.Stats(); st.Seeds != 1 {
				t.Errorf("seeds = %d, want exactly one (from manifest-6)", st.Seeds)
			}
			cancel()
			ld.closeAll()
			done.Wait()
		})
	}
}

// termMark is the test's stand-in for the serving layer's term
// high-water mark: monotone, raised by ObserveTerm, read by Term.
type termMark struct{ v atomic.Uint64 }

func (m *termMark) load() uint64 { return m.v.Load() }
func (m *termMark) observe(t uint64) {
	for {
		cur := m.v.Load()
		if t <= cur || m.v.CompareAndSwap(cur, t) {
			return
		}
	}
}

// bumpConn raises a term mark after the Nth successful Read on the
// connection — the test's way of landing a promotion at an exact point
// in the stream (each leader write is one pipe Read on this side).
type bumpConn struct {
	net.Conn
	after int32
	reads atomic.Int32
	bump  func()
}

func (c *bumpConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.reads.Add(1) == c.after {
		c.bump()
	}
	return n, err
}

// TestChaosStaleLeaderFenced is the deposed-leader schedule: the
// follower learns of term 2 (from elsewhere) after its Nth apply while
// the term-1 leader keeps shipping. The stream must be cut at exactly
// the next frame — no term-1 write may land after the mark rises — and
// once the leader itself is promoted to term 2 the follower must heal
// and converge. Run for every bump point so every frame index in the
// schedule is the fencing frame once.
func TestChaosStaleLeaderFenced(t *testing.T) {
	for bumpAfter := 1; bumpAfter <= 5; bumpAfter++ {
		bumpAfter := bumpAfter
		t.Run(fmt.Sprintf("bumpAfter%d", bumpAfter), func(t *testing.T) {
			ld := newChaosLeader(t)
			local := &termMark{}
			local.observe(1)
			m := &prefixModel{t: t}
			applies := 0
			f := &Follower{
				Dial:    ld.dial,
				Applied: m.Applied,
				Apply: func(b wal.Batch) error {
					if b.Epoch > m.Applied() {
						if b.Term < local.load() {
							t.Errorf("stale-term write applied: batch term %d, local %d (epoch %d)", b.Term, local.load(), b.Epoch)
						}
						applies++
						if applies == bumpAfter {
							defer local.observe(2) // promotion lands right after this apply
						}
					}
					return m.Apply(b)
				},
				Term:             local.load,
				ObserveTerm:      local.observe,
				HeartbeatTimeout: 60 * time.Millisecond,
				BackoffBase:      time.Millisecond,
				BackoffMax:       4 * time.Millisecond,
			}
			ctx, cancel := newTestContext(t)
			var done sync.WaitGroup
			done.Add(1)
			go func() { defer done.Done(); f.Run(ctx) }()

			for e := uint64(2); e <= 7; e++ {
				ld.appendT(e)
				time.Sleep(2 * time.Millisecond)
			}
			frozen := uint64(bumpAfter) + 1 // epochs start at 2
			deadline := time.Now().Add(5 * time.Second)
			for f.Stats().Fenced == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if st := f.Stats(); st.Fenced == 0 {
				t.Fatalf("stale leader never fenced (stats=%+v)", st)
			}
			time.Sleep(20 * time.Millisecond) // give a stale write a chance to leak
			if got := m.Applied(); got != frozen {
				t.Fatalf("applied %d after fencing, want frozen at %d", got, frozen)
			}

			// Heal: the leader itself is promoted to term 2 and ships on.
			ld.term.Store(2)
			for m.Applied() != 7 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := m.Applied(); got != 7 {
				t.Fatalf("follower stuck at %d after heal (stats=%+v)", got, f.Stats())
			}
			cancel()
			ld.closeAll()
			done.Wait()
		})
	}
}

// TestChaosPromotionMidSeed lands the promotion between the welcome and
// the checkpoint seed: the seed was cut by the term-1 leader, the
// follower hears of term 2 while the seed is in flight, and the seed
// must be fenced — a checkpoint is just a big batch of the old term's
// writes. A fresh term-2 checkpoint then heals it.
func TestChaosPromotionMidSeed(t *testing.T) {
	ld := newChaosLeader(t)
	for e := uint64(2); e <= 5; e++ {
		ld.appendT(e)
	}
	ld.checkpoint(5)

	local := &termMark{}
	local.observe(1)
	m := &prefixModel{t: t}
	var first atomic.Bool
	first.Store(true)
	f := &Follower{
		Dial: func(addr string) (net.Conn, error) {
			c, err := ld.dial(addr)
			if err != nil || !first.CompareAndSwap(true, false) {
				return c, err
			}
			// Read 1 is the welcome line, read 2 the seed frame: the
			// promotion lands after the welcome passed but before the
			// seed is checked.
			return &bumpConn{Conn: c, after: 2, bump: func() { local.observe(2) }}, nil
		},
		Applied:          m.Applied,
		Apply:            m.Apply,
		Term:             local.load,
		ObserveTerm:      local.observe,
		HeartbeatTimeout: 60 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
	}
	ctx, cancel := newTestContext(t)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); f.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Fenced == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := f.Stats(); st.Fenced == 0 {
		t.Fatalf("mid-seed promotion never fenced the seed (stats=%+v)", st)
	}
	if got := m.Applied(); got != 0 {
		t.Fatalf("stale seed applied through epoch %d, want none", got)
	}

	// Heal: the leader is promoted and cuts a term-2 checkpoint.
	ld.term.Store(2)
	ld.appendT(6)
	ld.checkpoint(6)
	for m.Applied() != 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Applied(); got != 6 {
		t.Fatalf("follower stuck at %d after term-2 checkpoint (stats=%+v)", got, f.Stats())
	}
	if st := f.Stats(); st.Seeds < 1 {
		t.Errorf("expected a seed apply, stats=%+v", st)
	}
	cancel()
	ld.closeAll()
	done.Wait()
}

// TestChaosSplitTerm is the racing-promotion schedule: two leaders both
// reach term 2 (a double auto-promote), the follower applies from A,
// loses it, re-targets to B — and must refuse B's term-2 writes, since
// one term admits one leader per follower. Only when B is promoted to
// term 3 (a real succession) may its writes land.
func TestChaosSplitTerm(t *testing.T) {
	a := newChaosLeader(t)
	a.term.Store(2)
	a.ship.Advertise = "a:1"
	b := newChaosLeader(t)
	b.term.Store(2)
	b.ship.Advertise = "b:1"
	// Identical shared history up to epoch 4 on both leaders.
	for e := uint64(2); e <= 4; e++ {
		a.appendT(e)
		b.appendT(e)
	}

	var aDown atomic.Bool
	local := &termMark{}
	local.observe(1)
	m := &prefixModel{t: t}
	var fromB atomic.Int64
	f := &Follower{
		Target: "a:1",
		Peers:  []string{"b:1"},
		Dial: func(addr string) (net.Conn, error) {
			if addr == "a:1" {
				if aDown.Load() {
					return nil, fmt.Errorf("connection refused")
				}
				return a.dial(addr)
			}
			return b.dial(addr)
		},
		Applied: m.Applied,
		Apply: func(bt wal.Batch) error {
			if bt.Epoch > m.Applied() && bt.Epoch >= 5 {
				fromB.Add(1) // only B ever ships past epoch 4
			}
			return m.Apply(bt)
		},
		Term:             local.load,
		ObserveTerm:      local.observe,
		HeartbeatTimeout: 60 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
	}
	ctx, cancel := newTestContext(t)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); f.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for m.Applied() != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Applied(); got != 4 {
		t.Fatalf("never synced from A: applied=%d (stats=%+v)", got, f.Stats())
	}

	// A dies; B (same term, different identity) ships a new write.
	aDown.Store(true)
	a.closeAll()
	b.appendT(5)
	for f.Stats().Fenced == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := f.Stats(); st.Fenced == 0 {
		t.Fatalf("split-term write from B never fenced (stats=%+v)", st)
	}
	if n := fromB.Load(); n != 0 {
		t.Fatalf("follower holds %d writes from a second term-2 leader", n)
	}
	if got := m.Applied(); got != 4 {
		t.Fatalf("applied=%d after split fence, want 4", got)
	}

	// B wins a real succession (term 3): now its chain is legitimate.
	b.term.Store(3)
	b.appendT(6)
	for m.Applied() != 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Applied(); got != 6 {
		t.Fatalf("follower stuck at %d after B's term-3 promotion (stats=%+v)", got, f.Stats())
	}
	if st := f.Stats(); st.Retargets == 0 || st.Target != "b:1" {
		t.Errorf("expected a re-target to b:1, stats=%+v", st)
	}
	cancel()
	b.closeAll()
	done.Wait()
}
