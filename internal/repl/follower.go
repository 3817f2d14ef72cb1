package repl

// The follower side: dial the leader, hand it our applied epoch and
// term, apply the stream, and when anything goes wrong — connection
// refused, mid-frame drop, stalled peer, corrupt frame, stale term —
// back off with jitter and reconnect from whatever epoch we reached.
// The apply path is the caller's (ldl.System.ApplyReplicated via the
// cmd adapter), which deduplicates by epoch, so every fault schedule
// resolves to the same thing: an exact epoch-prefix that only ever
// grows.
//
// Self-healing: the follower is not married to one address. When the
// current target dies (heartbeat timeout, refused dial) or turns stale
// (its term falls below our high-water mark), the follower probes its
// candidate set — the last advertised leader, the configured target,
// the -peers successor list, and any leader a probed peer forwards to —
// with HELLO, and re-attaches to the writable peer reporting the
// highest term. Fencing makes this safe under races: a stream term
// below the local mark is refused at the welcome, at every heartbeat,
// and at every batch; and within one term the follower binds to a
// single leader identity, so two leaders racing on the same term can
// never both be applied. An optional deadman (AutoPromoteAfter) lets a
// designated successor self-promote when no leader answers for long
// enough — its term bump fences the old chain.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"ldl/internal/wal"
)

// errStaleTerm marks a stream fenced for carrying a term below the
// follower's high-water mark.
var errStaleTerm = errors.New("repl: fenced stale-term stream")

// errSplitTerm marks a stream refused because a *different* leader
// already supplied writes under the same term.
var errSplitTerm = errors.New("repl: second leader on the same term")

// Stats is a snapshot of the follower's replication state — what the
// serving layer reports under STATS.
type Stats struct {
	// Connected reports a live leader connection.
	Connected bool
	// Applied is the last epoch applied; LeaderEpoch the leader's head
	// as of the last heartbeat or batch; Lag their difference — the
	// staleness bound a replica read is served under.
	Applied     uint64
	LeaderEpoch uint64
	Lag         uint64
	// Leader is the address the leader advertises for write redirects;
	// Target is the address the follower currently streams from (they
	// differ under chained replication).
	Leader string
	Target string
	// Term is the highest leader term observed on the stream.
	Term uint64
	// Dials counts connection attempts; Seeds counts checkpoint seeds
	// applied (each one is a full re-sync, so a growing count means the
	// follower keeps falling behind the leader's checkpoint retention).
	Dials int64
	Seeds int64
	// Fenced counts stale-term streams and frames refused; Retargets
	// counts target switches; Probes counts HELLO probes sent.
	Fenced    int64
	Retargets int64
	Probes    int64
	// AutoPromotions counts deadman self-promotions fired (0 or 1 — the
	// follower stops after promoting).
	AutoPromotions int64
	// LastError is the most recent stream failure ("" when none yet).
	LastError string
}

// Follower replicates from one leader until its context is canceled.
type Follower struct {
	// Target is the initial leader address; Peers is the ordered
	// successor list probed when the leader dies. Dial overrides how an
	// address is reached (nil = net.Dial "tcp"). The chaos tests inject
	// fault connections here.
	Target string
	Peers  []string
	Dial   func(addr string) (net.Conn, error)
	// Applied reports the last applied epoch (the resume token sent on
	// every reconnect); Apply applies one shipped batch. Both come from
	// the serving layer's System adapter.
	Applied func() uint64
	Apply   func(wal.Batch) error
	// Term reports the local leader-term high-water mark; streams below
	// it are fenced. ObserveTerm adopts a higher term seen on the wire
	// (welcome, heartbeat, probe reply). Either may be nil: fencing is
	// then disabled (pre-term peers).
	Term        func() uint64
	ObserveTerm func(uint64)
	// AutoPromoteAfter is the deadman: when no writable leader has been
	// reachable for this long, call Promote and stop. Zero disables.
	// Configure it on the designated first successor only.
	AutoPromoteAfter time.Duration
	Promote          func()
	// HeartbeatTimeout is how long a silent connection is trusted before
	// being declared dead (default 10s; must exceed the leader's
	// heartbeat interval).
	HeartbeatTimeout time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	mu sync.Mutex
	st Stats
	// target is the address currently streamed from; advertised is the
	// leader address from the last welcome — the first re-target
	// candidate. boundTerm/boundLeader pin the leader identity whose
	// writes we applied at the current term: a second identity on the
	// same term is refused (one leader per term, per follower).
	target      string
	advertised  string
	boundTerm   uint64
	boundLeader string
}

// Stats returns a consistent snapshot of the replication state.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	st.Applied = f.Applied()
	if st.LeaderEpoch > st.Applied {
		st.Lag = st.LeaderEpoch - st.Applied
	} else {
		st.Lag = 0
	}
	if f.Term != nil {
		st.Term = f.Term()
	}
	return st
}

// localTerm reads the fencing high-water mark (0 = fencing disabled).
func (f *Follower) localTerm() uint64 {
	if f.Term == nil {
		return 0
	}
	return f.Term()
}

func (f *Follower) observeTerm(t uint64) {
	if f.ObserveTerm != nil && t > f.localTerm() {
		f.ObserveTerm(t)
	}
}

func (f *Follower) noteFenced() {
	f.mu.Lock()
	f.st.Fenced++
	f.mu.Unlock()
}

// Run replicates until ctx is canceled: dial, stream, and on any
// failure reconnect with jittered exponential backoff, resuming from
// the applied epoch. A stream that made progress resets the backoff.
// Between reconnects the follower re-targets: it probes its candidate
// peers and switches to whichever reports the highest writable term —
// so a PROMOTE anywhere in the fleet converges every follower with no
// restarts. If AutoPromoteAfter is set and no leader answers for that
// long, Promote fires and Run returns.
func (f *Follower) Run(ctx context.Context) {
	base := f.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := f.BackoffMax
	if max <= 0 {
		max = 5 * time.Second
	}
	f.mu.Lock()
	if f.target == "" {
		f.target = f.Target
	}
	f.st.Target = f.target
	f.mu.Unlock()

	backoff := base
	var deadSince time.Time // zero = a leader answered recently
	for ctx.Err() == nil {
		f.mu.Lock()
		f.st.Dials++
		target := f.target
		f.mu.Unlock()
		conn, err := f.dial(target)
		if err == nil {
			// Cancellation must interrupt a blocked read: close the
			// connection when ctx dies.
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			var progress bool
			progress, err = f.stream(ctx, conn, target)
			stop()
			conn.Close()
			if progress {
				backoff = base
				deadSince = time.Time{}
			}
		}
		f.mu.Lock()
		f.st.Connected = false
		if err != nil && ctx.Err() == nil {
			f.st.LastError = err.Error()
		}
		f.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if deadSince.IsZero() {
			deadSince = time.Now()
		}
		// Re-target: probe the candidate set for a live leader. Finding
		// one (even the current target) resets the deadman.
		if next, found := f.retarget(ctx); found {
			f.setTarget(next)
			deadSince = time.Time{}
			if next != target {
				backoff = base
			}
		} else if f.AutoPromoteAfter > 0 && f.Promote != nil && time.Since(deadSince) >= f.AutoPromoteAfter {
			// Deadman: no writable leader anywhere in the candidate set
			// for the full grace period. Self-promote; the term bump
			// fences the old chain if it ever comes back.
			f.mu.Lock()
			f.st.AutoPromotions++
			f.mu.Unlock()
			f.Promote()
			return
		}
		// Jittered exponential backoff: sleep in [backoff/2, backoff),
		// so a herd of followers orphaned together does not re-dial in
		// lockstep.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
		if backoff *= 2; backoff > max {
			backoff = max
		}
	}
}

func (f *Follower) dial(addr string) (net.Conn, error) {
	if f.Dial != nil {
		return f.Dial(addr)
	}
	return net.Dial("tcp", addr)
}

func (f *Follower) setTarget(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if addr == "" || addr == f.target {
		return
	}
	f.target = addr
	f.st.Target = addr
	f.st.Retargets++
}

// candidates is the ordered probe set: the advertised leader from the
// last welcome or redirect first (the freshest hint — this is what
// re-targets a follower with no Peers configured at all), then the
// configured target, then the successor list.
func (f *Follower) candidates() []string {
	f.mu.Lock()
	adv, cur := f.advertised, f.target
	f.mu.Unlock()
	out := make([]string, 0, len(f.Peers)+3)
	seen := map[string]bool{}
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	add(adv)
	add(cur)
	add(f.Target)
	for _, p := range f.Peers {
		add(p)
	}
	return out
}

// retarget probes the candidate set and picks the writable peer with
// the highest term (at least our own high-water mark). A replica that
// forwards to a leader enqueues that leader (one forwarding hop chain,
// bounded). found is false when no writable peer answered — the signal
// the auto-promote deadman counts.
func (f *Follower) retarget(ctx context.Context) (best string, found bool) {
	queue := f.candidates()
	if len(queue) == 1 {
		// Nothing to choose between: keep re-dialing the one address.
		// (Probing it anyway would only burn a connection.)
		return queue[0], false
	}
	probed := map[string]bool{}
	var bestTerm uint64
	local := f.localTerm()
	for i := 0; i < len(queue) && i < 16 && ctx.Err() == nil; i++ {
		addr := queue[i]
		if probed[addr] {
			continue
		}
		probed[addr] = true
		p, err := f.probe(addr)
		if err != nil {
			continue
		}
		f.observeTerm(p.Term)
		if p.Leader != "" && p.Leader != addr {
			queue = append(queue, p.Leader) // follow the forwarding hint
		}
		if p.Role == RoleLeader && p.Term >= local && (best == "" || p.Term > bestTerm) {
			best, bestTerm = addr, p.Term
		}
	}
	if best != "" {
		return best, true
	}
	return "", false
}

// probe dials addr, sends one HELLO, and reads the reply.
func (f *Follower) probe(addr string) (Probe, error) {
	f.mu.Lock()
	f.st.Probes++
	f.mu.Unlock()
	conn, err := f.dial(addr)
	if err != nil {
		return Probe{}, err
	}
	defer conn.Close()
	timeout := f.HeartbeatTimeout
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "%s\n", ProbeLine(f.localTerm())); err != nil {
		return Probe{}, err
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return Probe{}, err
	}
	return ParseProbeReply(strings.TrimSpace(line))
}

// stream runs one connection: handshake, then apply frames until the
// connection fails, goes silent past the heartbeat timeout, delivers a
// corrupt frame, or falls below the local term (fenced). progress
// reports whether at least one batch applied, which is what resets the
// reconnect backoff.
func (f *Follower) stream(ctx context.Context, conn net.Conn, target string) (progress bool, err error) {
	hbt := f.HeartbeatTimeout
	if hbt <= 0 {
		hbt = 10 * time.Second
	}
	conn.SetDeadline(time.Now().Add(hbt))
	if _, err := fmt.Fprintf(conn, "%s\n", HelloLine(f.Applied(), f.localTerm())); err != nil {
		return false, err
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		return false, err
	}
	line = strings.TrimSpace(line)
	head, leader, term, err := ParseWelcome(line)
	if err != nil {
		// An ERR refusal can still carry the re-target hint ("ERR
		// read-only leader=<addr>"): remember it for the next probe
		// round even without -peers configured.
		if hint, ok := ParseRedirect(line); ok {
			f.mu.Lock()
			f.advertised = hint
			f.mu.Unlock()
		}
		return false, err
	}
	// streamTerm is the stream's authority: the term of the leader at
	// the head of this (possibly chained) stream, established by the
	// welcome and raised by heartbeats and batch stamps. Fencing checks
	// the AUTHORITY against the local mark, never an individual batch's
	// origin term — a freshly promoted leader legitimately ships
	// history it inherited from earlier terms, and that history must
	// not be refused just because the follower already heard of the
	// new term.
	streamTerm := term
	if streamTerm > 0 && streamTerm < f.localTerm() {
		// The peer leads (or relays) a superseded term: fence the stream
		// before a single frame is read.
		f.noteFenced()
		return false, fmt.Errorf("%w: welcome term %d below local %d", errStaleTerm, streamTerm, f.localTerm())
	}
	f.observeTerm(term)
	f.mu.Lock()
	f.st.Connected = true
	f.st.Leader = leader
	f.advertised = leader
	if head > f.st.LeaderEpoch {
		f.st.LeaderEpoch = head
	}
	f.mu.Unlock()

	// The stream's leader identity: the advertised write address (under
	// chained replication every link in a chain advertises the chain's
	// head, so the binding names the actual leader, not the relay).
	identity := leader
	if identity == "" {
		identity = target
	}

	for ctx.Err() == nil {
		conn.SetReadDeadline(time.Now().Add(hbt))
		kind, payload, err := readFrame(r)
		if err != nil {
			return progress, err
		}
		switch kind {
		case kindHeartbeat:
			head, hbTerm, err := parseHeartbeat(payload)
			if err != nil {
				return progress, err
			}
			if hbTerm > streamTerm {
				streamTerm = hbTerm // the attached leader was promoted
			}
			// Per-frame fencing: the local mark can rise mid-stream (a
			// probe or a peer's hello observed a promotion elsewhere),
			// so every frame re-checks — a deposed leader that keeps
			// shipping is cut at exactly the frame where the new term
			// becomes known.
			if streamTerm > 0 && streamTerm < f.localTerm() {
				f.noteFenced()
				return progress, fmt.Errorf("%w: heartbeat term %d below local %d", errStaleTerm, streamTerm, f.localTerm())
			}
			f.observeTerm(streamTerm)
			f.noteLeaderEpoch(head)
		case kindSeed, kindBatch:
			// Fence on the header before decoding the rows: a refused
			// frame interns none of its terms.
			h, _, err := wal.DecodeHeader(payload)
			if err != nil {
				return progress, fmt.Errorf("repl: frame decode: %w", err)
			}
			if h.Term > streamTerm {
				streamTerm = h.Term
			}
			if streamTerm > 0 && streamTerm < f.localTerm() {
				f.noteFenced()
				return progress, fmt.Errorf("%w: stream term %d below local %d (epoch %d)", errStaleTerm, streamTerm, f.localTerm(), h.Epoch)
			}
			if streamTerm > 0 && !f.bindTerm(streamTerm, identity) {
				f.noteFenced()
				return progress, fmt.Errorf("%w: term %d already served by %s", errSplitTerm, streamTerm, f.boundLeaderFor(streamTerm))
			}
			if h.Kind == wal.RecTerm {
				f.observeTerm(streamTerm)
				continue // a shipped term bump carries no facts
			}
			b, err := wal.DecodeBatchPayload(payload)
			if err != nil {
				return progress, fmt.Errorf("repl: frame decode: %w", err)
			}
			// Raise the batch to the stream's authority before applying:
			// the leader of streamTerm vouches for it (it may be history
			// inherited from an earlier term). The apply side's own fence
			// then compares authority, not origin.
			if b.Term < streamTerm {
				b.Term = streamTerm
			}
			if err := f.Apply(b); err != nil {
				return progress, fmt.Errorf("repl: apply epoch %d: %w", b.Epoch, err)
			}
			progress = true
			f.observeTerm(streamTerm)
			if kind == kindSeed {
				f.mu.Lock()
				f.st.Seeds++
				f.mu.Unlock()
			}
			f.noteLeaderEpoch(b.Epoch)
		default:
			return progress, fmt.Errorf("repl: unknown frame kind %q", kind)
		}
	}
	return progress, ctx.Err()
}

// bindTerm pins term to one leader identity: the first stream to apply
// a batch under a term owns it, and a different identity on the same
// term is refused. Terms above the bound one re-bind (the new leader
// won); ok is false only for an identity clash on the bound term.
func (f *Follower) bindTerm(term uint64, identity string) (ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case term > f.boundTerm:
		f.boundTerm, f.boundLeader = term, identity
		return true
	case term == f.boundTerm:
		return f.boundLeader == identity
	default:
		// A term below the binding is the stale-leader case the caller
		// already fences; refuse defensively.
		return false
	}
}

func (f *Follower) boundLeaderFor(term uint64) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if term == f.boundTerm {
		return f.boundLeader
	}
	return ""
}

func (f *Follower) noteLeaderEpoch(e uint64) {
	f.mu.Lock()
	if e > f.st.LeaderEpoch {
		f.st.LeaderEpoch = e
	}
	f.mu.Unlock()
}
