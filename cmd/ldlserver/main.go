// Command ldlserver exposes a loaded LDL program over a line protocol,
// on TCP or stdin. It is the network front end of the query service:
// every request flows through admission control (bounded concurrency,
// bounded queue, load shedding) and a per-request deadline wired into
// the resource governor, and every query is answered from the
// prepared-plan cache when its adorned form has been seen before.
//
// With -storage-dir (or its alias -data-dir) the fact base is durable:
// boot attaches the directory's segment files and replays the
// write-ahead-log tail past their manifest (with a logged recovery
// report), every LOAD batch is logged before it is acknowledged, and
// shutdown takes a final checkpoint. A directory holding a checkpoint
// of the retired snapshot format is refused at boot.
//
// Protocol (one request per line, responses terminated by a blank line
// is NOT used — the first token tells the client how much to read):
//
//	QUERY <goal> [wait=<E>] -> OK <n> \n <n data lines, comma-separated)
//	LOAD <facts>          -> OK <added> epoch=<e> term=<t>
//	STATS                 -> OK <n> \n <n key=value lines>
//	PING                  -> OK 0
//	HELLO [term=<t>]      -> OK hello role=<r> term=<t> epoch=<e> leader=<addr>
//	PROMOTE               -> OK promoted epoch=<e> term=<t>  (replicas only)
//	REPL <epoch> [term=<t>] -> OK repl epoch=<e> leader=<addr> term=<t>,
//	                         then a binary replication stream (internal/repl)
//	anything else         -> ERR <message>
//
// Overload is reported as "ERR overloaded retry: ..." so clients can
// parse the retry hint and back off. A connection idle longer than
// -idle-timeout is told "ERR idle timeout" and closed.
//
// Replication: a durable server is a replication leader for free — any
// connection may send "REPL <epoch>" and becomes a log-shipping stream
// resuming after that epoch (a seed of the newest manifest's rows
// first when the log prefix was retired). Started with -replica-of the
// server is a follower: it replicates continuously from the leader,
// serves QUERY/STATS with the replication lag visible under STATS, and
// refuses LOAD with the machine-parseable "ERR read-only
// leader=<addr>" so clients can redirect writes. A durable follower also answers REPL itself —
// chained replication — forwarding its known leader in the welcome so
// downstream clients still learn where writes go.
//
// Failover is term-fenced and self-healing. Every promotion bumps a
// WAL-persisted leader term; streams, heartbeats, and probes all carry
// it, and anything below a node's high-water mark is fenced — a deposed
// leader can never slip writes to a converged follower, and hearing a
// higher term latches the old leader read-only. PROMOTE is the manual
// path. With -peers a follower that loses its leader probes the
// successor list (HELLO) and re-attaches to the highest-term writable
// peer by itself; with -auto-promote-after the designated successor
// self-promotes when no leader answers for that long.
//
// Read-your-writes: LOAD acknowledges with the published epoch, and
// "QUERY ... wait=<E>" blocks (up to -ryw-timeout) until the serving
// node has applied epoch E, failing with the machine-parseable "ERR
// lagging behind=<n>" when it cannot — so a client can write through
// the leader and read its own write from any replica.
//
// On SIGINT or SIGTERM the server stops accepting connections, stops
// the replication follower if any, drains in-flight requests through
// the admission gate (bounded by -drain-timeout), closes the remaining
// connections, and — when durable — checkpoints and closes the log
// before exiting.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ldl"
	"ldl/internal/repl"
	"ldl/internal/service"
	"ldl/internal/term"
)

func main() {
	var (
		addr      = flag.String("addr", "", "TCP listen address (e.g. :7654); empty serves stdin/stdout")
		program   = flag.String("program", "", "LDL program file to load (required)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline (0 = none)")
		workers   = flag.Int("max-concurrent", 8, "max queries executing at once")
		queue     = flag.Int("max-queue", 16, "max queries waiting for a slot")
		plans     = flag.Int("max-plans", 128, "prepared-plan cache capacity")
		storeDir  = flag.String("storage-dir", "", "durable columnar storage directory: segment files + manifest + WAL; boot attaches segments and replays the log tail (empty = in-memory only)")
		fsync     = flag.String("fsync", "always", "log fsync policy: always, interval or never")
		ckptBytes = flag.Int64("checkpoint-bytes", 4<<20, "log size that triggers a background checkpoint")
		idle      = flag.Duration("idle-timeout", 2*time.Minute, "close connections idle longer than this (0 = never)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		replicaOf = flag.String("replica-of", "", "leader address to replicate from: boot as a read-only follower")
		peers     = flag.String("peers", "", "comma-separated successor addresses a follower probes when its leader dies (failover candidates)")
		autoProm  = flag.Duration("auto-promote-after", 0, "follower self-promotes when no leader has answered for this long (0 = never; set on the designated successor only)")
		rywWait   = flag.Duration("ryw-timeout", 2*time.Second, "max wait for 'QUERY ... wait=<E>' before ERR lagging")
		advertise = flag.String("advertise", "", "address advertised to followers for write redirects (default -addr)")
		matMode   = flag.String("materialize", "", "maintain materialized views of the derived predicates: 'incremental' (semi-naive continuation across epochs; the only mode). Empty disables")
	)
	flag.StringVar(storeDir, "data-dir", "", "alias of -storage-dir")
	flag.Parse()
	if *program == "" {
		log.Fatal("ldlserver: -program is required")
	}
	src, err := os.ReadFile(*program)
	if err != nil {
		log.Fatalf("ldlserver: %v", err)
	}
	var sysOpts []ldl.SystemOption
	if *storeDir != "" {
		policy, err := ldl.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("ldlserver: %v", err)
		}
		sysOpts = append(sysOpts,
			ldl.WithStorageDir(*storeDir),
			ldl.WithFsyncPolicy(policy, 0),
			ldl.WithCheckpointBytes(*ckptBytes))
	}
	switch *matMode {
	case "":
	case "incremental":
		sysOpts = append(sysOpts, ldl.WithMaterialized())
	default:
		log.Fatalf("ldlserver: -materialize must be 'incremental' or empty, got %q", *matMode)
	}
	sys, err := ldl.Load(string(src), sysOpts...)
	if err != nil {
		log.Fatalf("ldlserver: load: %v", err)
	}
	if rep := sys.Recovery(); rep != nil {
		log.Printf("ldlserver: recovery: %s", rep)
	}
	srv := newServer(sys, service.Config{
		MaxPlans:       *plans,
		MaxConcurrent:  *workers,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		SystemOptions:  sysOpts,
	})
	srv.idleTimeout = *idle
	srv.rywTimeout = *rywWait
	srv.advertise = *advertise
	if srv.advertise == "" {
		srv.advertise = *addr
	}

	if *replicaOf != "" {
		// Follower mode: the fact base advances only through the
		// replication stream; local writes are refused with a redirect.
		sys.SetReadOnly(*replicaOf)
		f := &repl.Follower{
			Target:           *replicaOf,
			Peers:            splitPeers(*peers),
			Applied:          sys.Epoch,
			Apply:            sys.ApplyReplicated,
			Term:             sys.Term,
			ObserveTerm:      func(t uint64) { sys.ObserveTerm(t) },
			AutoPromoteAfter: *autoProm,
			Promote: func() {
				// The deadman fired: no writable leader answered for the
				// full grace period. The term bump fences whatever is
				// left of the old chain.
				if ep, tm, err := sys.Promote(); err != nil {
					log.Printf("ldlserver: auto-promote failed (staying read-only): %v", err)
				} else {
					log.Printf("ldlserver: auto-promoted: epoch=%d term=%d", ep, tm)
				}
			},
		}
		ctx, cancel := context.WithCancel(context.Background())
		srv.follower = f
		srv.stopFollower = cancel
		go f.Run(ctx)
		defer cancel()
		log.Printf("ldlserver: replicating from %s (peers: %q)", *replicaOf, *peers)
	}

	if *addr == "" {
		srv.handle(os.Stdin, os.Stdout)
		if srv.stopFollower != nil {
			srv.stopFollower()
		}
		if err := sys.Close(); err != nil {
			log.Fatalf("ldlserver: close: %v", err)
		}
		return
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ldlserver: %v", err)
	}
	log.Printf("ldlserver: serving on %s", l.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("ldlserver: %v: shutting down", sig)
		l.Close() // stop accepting; serve's Accept returns
		if srv.stopFollower != nil {
			srv.stopFollower()
		}
		srv.drain(*drain)
	}()

	if err := srv.serve(l); err != nil {
		log.Fatalf("ldlserver: %v", err)
	}
	// All connections are gone; make the fact base durable and exit.
	if err := sys.Close(); err != nil {
		log.Fatalf("ldlserver: final checkpoint: %v", err)
	}
	log.Printf("ldlserver: shutdown complete")
}

// splitPeers parses the -peers flag: a comma-separated address list,
// blanks dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// server binds the service to the line protocol.
type server struct {
	svc         *service.Service
	idleTimeout time.Duration
	// rywTimeout bounds a "QUERY ... wait=<E>" read-your-writes wait.
	rywTimeout time.Duration

	// advertise is the leader address sent in replication welcomes —
	// where follower clients should redirect writes.
	advertise string
	// follower and stopFollower are set (before serving starts) when the
	// server runs in -replica-of mode: the replication loop feeding the
	// System, and the cancel PROMOTE uses to stop it.
	follower     *repl.Follower
	stopFollower context.CancelFunc
	// shipHeartbeat overrides the Shipper heartbeat interval (tests).
	shipHeartbeat time.Duration

	// draining refuses new requests on surviving connections while the
	// shutdown drain waits for in-flight ones.
	draining atomic.Bool
	mu       sync.Mutex
	conns    map[net.Conn]bool

	// poison is a test seam: when set it runs before each request and
	// may panic, standing in for a request that trips an unguarded bug.
	poison func(line string)
}

func newServer(sys *ldl.System, cfg service.Config) *server {
	return &server{svc: service.New(sys, cfg), conns: map[net.Conn]bool{}}
}

// serve accepts connections until the listener closes, one goroutine
// per connection, and returns once every connection handler has. Query
// concurrency is bounded by the service's admission control, not by the
// accept loop.
func (s *server) serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.track(conn, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

func (s *server) track(conn net.Conn, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if on {
		s.conns[conn] = true
	} else {
		delete(s.conns, conn)
	}
}

// drain waits (bounded by timeout) for the admission gate to empty —
// no request executing or queued — then closes every surviving
// connection so serve can return. Requests arriving on open connections
// during the drain are refused with an ERR line.
func (s *server) drain(timeout time.Duration) {
	s.draining.Store(true)
	adm := s.svc.AdmissionGate()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := adm.Stats()
		if st.Active == 0 && st.Queued == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

// handleConn runs the request loop on one network connection, renewing
// the idle deadline before each read. An idle expiry produces a final
// "ERR idle timeout" line so the client can tell a policy close from a
// network failure.
func (s *server) handleConn(conn net.Conn) {
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	out := bufio.NewWriter(conn)
	for {
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		if !in.Scan() {
			var ne net.Error
			if errors.As(in.Err(), &ne) && ne.Timeout() {
				// Best effort: the peer may be gone entirely.
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				out.WriteString("ERR idle timeout\n")
				out.Flush()
			}
			return
		}
		line := strings.TrimSpace(in.Text())
		if verb, _, _ := strings.Cut(line, " "); strings.ToUpper(verb) == "REPL" {
			// The connection stops being a request/response line stream
			// and becomes a one-way replication stream until it dies.
			s.serveRepl(conn, out, line)
			return
		}
		if !s.respond(out, line) {
			return
		}
	}
}

// serveRepl turns one connection into a replication stream: validate
// the hello, send the welcome, and ship the log until the connection
// dies (the follower reconnects and gets a fresh serveRepl). The
// follower never writes after its hello, so taking over the raw
// connection under the request scanner loses nothing.
func (s *server) serveRepl(conn net.Conn, out *bufio.Writer, line string) {
	refuse := func(msg string) {
		out.WriteString("ERR " + msg + "\n")
		out.Flush()
	}
	from, fterm, err := repl.ParseHello(line)
	if err != nil {
		refuse(s.errLine(err))
		return
	}
	sys := s.svc.System()
	// A follower carrying a higher term than ours is proof we were
	// deposed: adopt the term (latching read-only if we were leading)
	// before deciding what to ship.
	if sys.ObserveTerm(fterm) {
		log.Printf("ldlserver: deposed by follower hello (term %d); now read-only", fterm)
	}
	dir, fs, ok := sys.WALAccess()
	if !ok {
		refuse("replication requires a durable node (-storage-dir)")
		return
	}
	// Replication connections are long-lived and mostly idle; the
	// follower's heartbeat timeout is the liveness check, not ours.
	conn.SetDeadline(time.Time{})
	// Chained replication: a replica serves the stream too, advertising
	// its own leader so downstream peers still learn where writes go.
	out.WriteString(repl.WelcomeLine(sys.Epoch(), s.writeAddr(sys), sys.Term()) + "\n")
	if out.Flush() != nil {
		return
	}
	ship := &repl.Shipper{
		Dir: dir, FS: fs,
		Head:      sys.Epoch,
		Changed:   sys.Changed,
		Term:      sys.Term,
		Advertise: s.advertise,
		Heartbeat: s.shipHeartbeat,
	}
	if err := ship.Serve(conn, from); err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
		log.Printf("ldlserver: replication stream ended: %v", err)
	}
}

// handle runs the request loop on a plain stream (the stdin mode).
// Malformed input produces an ERR line and the loop continues; only EOF
// or a write error ends it.
func (s *server) handle(r io.Reader, w io.Writer) {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	out := bufio.NewWriter(w)
	for in.Scan() {
		if !s.respond(out, in.Text()) {
			return
		}
	}
}

// respond processes one input line and writes the response; false means
// the connection is done (write failure or shutdown).
func (s *server) respond(out *bufio.Writer, line string) bool {
	line = strings.TrimSpace(line)
	if line == "" {
		return true
	}
	if s.draining.Load() {
		out.WriteString("ERR shutting down\n")
		out.Flush()
		return false
	}
	for _, resp := range s.process(line) {
		if _, err := out.WriteString(resp); err != nil {
			return false
		}
		if err := out.WriteByte('\n'); err != nil {
			return false
		}
	}
	return out.Flush() == nil
}

// process dispatches one request with panic isolation: a panic while
// serving a request — the library's own guards should make this
// impossible, so it means a genuine bug — is confined to an ERR
// response on this connection instead of taking down the process and
// every other connection with it.
func (s *server) process(line string) (resp []string) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("ldlserver: panic serving request: %v", r)
			resp = []string{"ERR internal error"}
		}
	}()
	if s.poison != nil {
		s.poison(line)
	}
	return s.handleLine(line)
}

// handleLine executes one request and returns the response lines.
func (s *server) handleLine(line string) []string {
	verb, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToUpper(verb) {
	case "PING":
		return []string{"OK 0"}
	case "STATS":
		return s.statsLines()
	case "HELLO":
		// The failover probe: who are you, which term, how far along,
		// where do writes go. A probe carrying a higher term than ours
		// is also how a deposed leader finds out.
		pterm, err := repl.ParseProbe(line)
		if err != nil {
			return []string{"ERR " + s.errLine(err)}
		}
		sys := s.svc.System()
		if sys.ObserveTerm(pterm) {
			log.Printf("ldlserver: deposed by probe (term %d); now read-only", pterm)
		}
		role := repl.RoleLeader
		if ro, _ := sys.ReadOnly(); ro {
			role = repl.RoleReplica
		}
		return []string{repl.ProbeReplyLine(repl.Probe{
			Role: role, Term: sys.Term(), Epoch: sys.Epoch(), Leader: s.writeAddr(sys),
		})}
	case "QUERY":
		goal, wait, err := splitWait(rest)
		if err != nil {
			return []string{"ERR " + s.errLine(err)}
		}
		if goal == "" {
			return []string{"ERR QUERY needs a goal"}
		}
		if wait > 0 {
			// Read-your-writes: block until this node has applied the
			// epoch the client saw acknowledged, bounded by -ryw-timeout.
			if err := s.svc.WaitEpoch(context.Background(), wait, s.rywTimeout); err != nil {
				return []string{"ERR " + s.errLine(err)}
			}
		}
		resp, err := s.svc.Query(context.Background(), strings.TrimSuffix(goal, "?"))
		if err != nil {
			return []string{"ERR " + s.errLine(err)}
		}
		lines := make([]string, 0, len(resp.Rows)+1)
		lines = append(lines, fmt.Sprintf("OK %d", len(resp.Rows)))
		for _, row := range resp.Rows {
			lines = append(lines, strings.Join(row, ","))
		}
		return lines
	case "LOAD":
		if rest == "" {
			return []string{"ERR LOAD needs facts"}
		}
		added, epoch, err := s.svc.Load(context.Background(), rest)
		if err != nil {
			return []string{"ERR " + s.errLine(err)}
		}
		// The epoch is the client's read-your-writes token; the term
		// lets it detect a failover between its writes.
		return []string{fmt.Sprintf("OK %d epoch=%d term=%d", added, epoch, s.svc.System().Term())}
	case "PROMOTE":
		sys := s.svc.System()
		if ro, _ := sys.ReadOnly(); !ro {
			return []string{"ERR not a replica"}
		}
		if s.stopFollower != nil {
			s.stopFollower()
		}
		epoch, term, err := sys.Promote()
		if err != nil {
			return []string{"ERR " + s.errLine(err)}
		}
		log.Printf("ldlserver: promoted to leader: epoch=%d term=%d", epoch, term)
		return []string{fmt.Sprintf("OK promoted epoch=%d term=%d", epoch, term)}
	case "REPL":
		// Reachable only from the stdin loop; TCP connections are
		// hijacked in handleConn before dispatch.
		return []string{"ERR REPL requires a TCP connection"}
	default:
		return []string{"ERR unknown command " + verb}
	}
}

// splitWait strips a trailing "wait=<E>" token off a QUERY goal.
func splitWait(rest string) (goal string, wait uint64, err error) {
	i := strings.LastIndexByte(rest, ' ')
	if i < 0 || !strings.HasPrefix(rest[i+1:], "wait=") {
		return rest, 0, nil
	}
	wait, err = strconv.ParseUint(rest[i+1+len("wait="):], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("malformed wait token %q", rest[i+1:])
	}
	return strings.TrimSpace(rest[:i]), wait, nil
}

// writeAddr is where writes should be sent: this node when it leads,
// its known leader when it is a replica (the live leader learned from
// the stream, falling back to the bootstrap -replica-of address).
func (s *server) writeAddr(sys *ldl.System) string {
	ro, leader := sys.ReadOnly()
	if !ro {
		return s.advertise
	}
	if s.follower != nil {
		if st := s.follower.Stats(); st.Leader != "" {
			return st.Leader
		}
	}
	return leader
}

// errLine flattens an error to a single protocol-safe line. Two classes
// get machine-parseable prefixes: overload ("overloaded retry: ..." —
// the request was shed before doing any work and a backoff-retry is the
// right response) and replica write refusal ("read-only leader=<addr>"
// — the client should redirect the write to the leader).
func (s *server) errLine(err error) string {
	var roe *ldl.ReadOnlyError
	if errors.As(err, &roe) {
		leader := roe.Leader
		if s.follower != nil {
			// Prefer the address the leader itself advertises over the
			// bootstrap -replica-of value.
			if st := s.follower.Stats(); st.Leader != "" {
				leader = st.Leader
			}
		}
		return "read-only leader=" + leader
	}
	var le *service.LaggingError
	if errors.As(err, &le) {
		// Machine-parseable: the client's wait=<E> could not be served;
		// behind says how far off this replica still is.
		return fmt.Sprintf("lagging behind=%d", le.Behind())
	}
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	if errors.Is(err, service.ErrOverloaded) {
		return "overloaded retry: " + msg
	}
	return msg
}

// statsLines renders the STATS response: a count line then sorted
// key=value lines — the service counters, the server's replication
// role, and (when present) follower lag, WAL health, and the boot-time
// recovery report.
func (s *server) statsLines() []string {
	st := s.svc.Stats()
	sys := s.svc.System()
	var kv [][2]string
	add := func(k string, v any) { kv = append(kv, [2]string{k, fmt.Sprint(v)}) }
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	add("epoch", st.Epoch)
	// The intern table is process-global and append-only: every distinct
	// term a LOAD stores or a query binds or derives stays interned.
	add("term_interned", term.InternedCount())
	add("plans", st.PlanCacheSize)
	add("hits", st.Hits)
	add("misses", st.Misses)
	add("evictions", st.Evictions)
	add("invalidations", st.Invalidations)
	add("revalidations", st.Revalidations)
	add("queries", st.Queries)
	add("loads", st.Loads)
	add("errors", st.Errors)
	add("active", st.Admission.Active)
	add("queued", st.Admission.Queued)
	add("admitted", st.Admission.Admitted)
	add("rejected", st.Admission.Rejected)

	ro, leader := sys.ReadOnly()
	if ro {
		add("role", "replica")
	} else {
		add("role", "leader")
	}
	add("term", sys.Term())
	fenced := sys.FencedEvents()
	if s.follower != nil {
		fst := s.follower.Stats()
		if fst.Leader != "" {
			leader = fst.Leader
		}
		fenced += fst.Fenced
		add("repl_connected", b2i(fst.Connected))
		add("repl_applied", fst.Applied)
		add("repl_leader_epoch", fst.LeaderEpoch)
		add("repl_lag", fst.Lag)
		add("repl_dials", fst.Dials)
		add("repl_seeds", fst.Seeds)
		add("repl_retargets", fst.Retargets)
		add("repl_probes", fst.Probes)
		add("repl_target", fst.Target)
		add("repl_auto_promotions", fst.AutoPromotions)
	}
	add("repl_fenced", fenced)
	if leader != "" {
		add("repl_leader", leader)
	}
	if d := sys.Durability(); d.Durable {
		add("wal_segment_bytes", d.SegmentBytes)
		add("wal_wedged", b2i(d.Wedged))
		add("wal_last_checkpoint", d.LastCheckpoint)
	}
	if rep := sys.Recovery(); rep != nil {
		add("recovery_epoch", rep.Epoch)
		add("recovery_checkpoint_epoch", rep.CheckpointEpoch)
		add("recovery_records_replayed", rep.RecordsReplayed)
		add("recovery_bytes_dropped", rep.BytesDropped)
	}
	if sg := sys.StorageStats(); sg.Enabled {
		add("seg_manifest_epoch", sg.ManifestEpoch)
		add("seg_segments", sg.Segments)
		add("seg_rows", sg.SegmentRows)
		add("seg_tail_rows", sg.TailRows)
		add("seg_flushes", sg.Flushes)
		add("seg_bloom_prunes", sg.BloomPrunes)
		add("seg_zone_prunes", sg.ZonePrunes)
		add("seg_row_bloom_skips", sg.RowBloomSkips)
	}
	if ivm := sys.IVMStats(); ivm.Enabled {
		add("materialized", "incremental")
		add("ivm_epochs", ivm.Epochs)
		add("ivm_incremental_rounds", ivm.IncrementalRounds)
		add("ivm_scratch_fallbacks", ivm.ScratchFallbacks)
		add("ivm_delta_rows", ivm.DeltaRows)
		add("ivm_last_delta_rows", ivm.LastDeltaRows)
		add("ivm_view_queries", st.ViewQueries)
	}

	sort.Slice(kv, func(i, j int) bool { return kv[i][0] < kv[j][0] })
	lines := make([]string, 0, len(kv)+1)
	lines = append(lines, fmt.Sprintf("OK %d", len(kv)))
	for _, e := range kv {
		lines = append(lines, e[0]+"="+e[1])
	}
	return lines
}
