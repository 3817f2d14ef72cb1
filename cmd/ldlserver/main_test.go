package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldl"
	"ldl/internal/service"
)

const serverSrc = `
par(a1, b1). par(a1, b2). par(b1, c1). par(b2, c2).
par(d1, e1). par(e1, f1).

sg(X, X) <- par(Z, X).
sg(X, Y) <- par(XP, X), sg(XP, YP), par(YP, Y).

anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).

sg(X, Y)?
anc(X, Y)?
`

func startServer(t *testing.T, cfg service.Config) (addr string) {
	t.Helper()
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	srv := newServer(sys, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// client wraps one connection in the line protocol.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) send(line string) error {
	_, err := fmt.Fprintf(c.conn, "%s\n", line)
	return err
}

func (c *client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	return strings.TrimSuffix(line, "\n"), err
}

// query sends QUERY and reads the full response: the status line plus,
// on success, the advertised number of data lines.
func (c *client) query(goal string) (status string, rows []string, err error) {
	if err := c.send("QUERY " + goal); err != nil {
		return "", nil, err
	}
	status, err = c.readLine()
	if err != nil {
		return "", nil, err
	}
	if !strings.HasPrefix(status, "OK ") {
		return status, nil, nil
	}
	n, err := strconv.Atoi(strings.TrimPrefix(status, "OK "))
	if err != nil {
		return status, nil, fmt.Errorf("bad OK count in %q: %v", status, err)
	}
	for i := 0; i < n; i++ {
		row, err := c.readLine()
		if err != nil {
			return status, rows, err
		}
		rows = append(rows, row)
	}
	return status, rows, nil
}

// roundTrip sends a single-line-response command (PING, LOAD, or
// malformed input) and reads the one status line.
func (c *client) roundTrip(line string) (string, error) {
	if err := c.send(line); err != nil {
		return "", err
	}
	return c.readLine()
}

// stats sends STATS and returns the key=value map.
func (c *client) stats() (map[string]string, error) {
	if err := c.send("STATS"); err != nil {
		return nil, err
	}
	status, err := c.readLine()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(status, "OK "))
	if err != nil {
		return nil, fmt.Errorf("bad STATS status %q: %v", status, err)
	}
	kv := map[string]string{}
	for i := 0; i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		k, v, _ := strings.Cut(line, "=")
		kv[k] = v
	}
	return kv, nil
}

func TestProtocolBasics(t *testing.T) {
	addr := startServer(t, service.Config{})
	c := dial(t, addr)

	if got, err := c.roundTrip("PING"); err != nil || got != "OK 0" {
		t.Fatalf("PING = %q, %v", got, err)
	}

	status, rows, err := c.query("sg(b1, Y)")
	if err != nil {
		t.Fatalf("QUERY: %v", err)
	}
	if status != fmt.Sprintf("OK %d", len(rows)) || len(rows) == 0 {
		t.Fatalf("QUERY status %q with %d rows", status, len(rows))
	}

	// Trailing '?' is accepted and equivalent.
	status2, rows2, err := c.query("sg(b1, Y)?")
	if err != nil || status2 != status || len(rows2) != len(rows) {
		t.Fatalf("QUERY with '?' = %q (%d rows), %v; want %q (%d rows)",
			status2, len(rows2), err, status, len(rows))
	}

	if got, err := c.roundTrip("LOAD par(z1, z2)."); err != nil || got != "OK 1 epoch=2 term=1" {
		t.Fatalf("LOAD = %q, %v", got, err)
	}

	kv, err := c.stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if kv["epoch"] != "2" {
		t.Errorf("STATS epoch = %q, want 2", kv["epoch"])
	}
	if kv["queries"] != "2" || kv["loads"] != "1" {
		t.Errorf("STATS queries=%q loads=%q, want 2 and 1", kv["queries"], kv["loads"])
	}

	// Both queries ran before the LOAD, so the second (same adorned
	// form) must have hit the plan cache.
	if hits, _ := strconv.Atoi(kv["hits"]); hits < 1 {
		t.Errorf("STATS hits = %q, want >= 1", kv["hits"])
	}

	for _, bad := range []string{
		"FROB",
		"QUERY",
		"QUERY sg(a1, Y",
		"QUERY nosuchpred(X)",
		"LOAD",
		"LOAD sg(a, b) <- par(a, b).",
	} {
		got, err := c.roundTrip(bad)
		if err != nil {
			t.Fatalf("%q: %v", bad, err)
		}
		if !strings.HasPrefix(got, "ERR ") {
			t.Errorf("%q = %q, want ERR", bad, got)
		}
	}

	// The connection survives all of the above.
	if got, err := c.roundTrip("PING"); err != nil || got != "OK 0" {
		t.Fatalf("PING after errors = %q, %v", got, err)
	}
}

// TestStdinMode drives the request loop directly through an in-memory
// stream, the same code path "-addr ”" serves.
func TestStdinMode(t *testing.T) {
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	srv := newServer(sys, service.Config{})
	in := strings.NewReader("PING\n\nQUERY sg(b1, Y)\nBOGUS\n")
	var out strings.Builder
	srv.handle(in, &out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != "OK 0" {
		t.Errorf("line 0 = %q, want OK 0", lines[0])
	}
	if !strings.HasPrefix(lines[1], "OK ") {
		t.Errorf("line 1 = %q, want OK <n>", lines[1])
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "ERR ") {
		t.Errorf("last line = %q, want ERR", last)
	}
}

// TestConcurrentStress is the acceptance bar: >= 16 concurrent clients
// mixing queries, fact loads, and malformed input. The server must not
// panic or race, every request must get a well-formed OK/ERR response
// on its own connection, and overload must surface as ERR overloaded
// rather than unbounded queueing.
func TestConcurrentStress(t *testing.T) {
	const (
		clients = 18
		rounds  = 12
	)
	addr := startServer(t, service.Config{
		MaxConcurrent:  3,
		MaxQueue:       4,
		DefaultTimeout: 30 * time.Second,
	})

	goals := []string{
		"sg(b1, Y)", "sg(c1, Y)", "sg(X, Y)", "anc(X, Y)", "anc(a1, Y)",
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- fmt.Errorf("client %d: dial: %v", id, err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(120 * time.Second))
			c := &client{conn: conn, r: bufio.NewReader(conn)}
			for r := 0; r < rounds; r++ {
				switch {
				case id%6 == 0 && r%4 == 1:
					// Writer traffic: each load is a distinct new fact, so
					// every successful one advances the epoch.
					got, err := c.roundTrip(fmt.Sprintf("LOAD par(w%d_%d, c1).", id, r))
					if err != nil {
						errCh <- fmt.Errorf("client %d: LOAD: %v", id, err)
						return
					}
					if !strings.HasPrefix(got, "OK ") && !strings.HasPrefix(got, "ERR overloaded") {
						errCh <- fmt.Errorf("client %d: LOAD = %q", id, got)
						return
					}
				case id%5 == 0 && r%5 == 2:
					// Malformed input must produce ERR, never kill the
					// connection or the server.
					got, err := c.roundTrip("QUERY sg(a1, Y")
					if err != nil {
						errCh <- fmt.Errorf("client %d: malformed: %v", id, err)
						return
					}
					if !strings.HasPrefix(got, "ERR ") {
						errCh <- fmt.Errorf("client %d: malformed = %q", id, got)
						return
					}
				default:
					goal := goals[(id+r)%len(goals)]
					status, rows, err := c.query(goal)
					if err != nil {
						errCh <- fmt.Errorf("client %d: QUERY %s: %v", id, goal, err)
						return
					}
					switch {
					case strings.HasPrefix(status, "OK "):
						if len(rows) == 0 {
							errCh <- fmt.Errorf("client %d: QUERY %s: OK with no rows", id, goal)
							return
						}
					case strings.HasPrefix(status, "ERR overloaded"):
						// Load shed: correct under this much pressure.
					default:
						errCh <- fmt.Errorf("client %d: QUERY %s = %q", id, goal, status)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the storm the server still answers, and its counters add up.
	c := dial(t, addr)
	if got, err := c.roundTrip("PING"); err != nil || got != "OK 0" {
		t.Fatalf("PING after stress = %q, %v", got, err)
	}
	kv, err := c.stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if kv["active"] != "0" || kv["queued"] != "0" {
		t.Errorf("admission not drained: active=%q queued=%q", kv["active"], kv["queued"])
	}
	if hits, _ := strconv.Atoi(kv["hits"]); hits == 0 {
		t.Errorf("no plan-cache hits across %d clients x %d rounds", clients, rounds)
	}
}

// TestMaterializedServerStats boots a materialized server and checks
// the protocol surface of the incremental path: queries served from
// views, LOAD maintained incrementally, and the ivm_* STATS keys
// operators watch to see when a program falls off the incremental path.
func TestMaterializedServerStats(t *testing.T) {
	sys, err := ldl.Load(serverSrc, ldl.WithMaterialized())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	srv := newServer(sys, service.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	c := dial(t, l.Addr().String())

	status, before, err := c.query("anc(a1, Y)")
	if err != nil || !strings.HasPrefix(status, "OK ") {
		t.Fatalf("query: %q %v", status, err)
	}
	if status, err := c.roundTrip("LOAD par(c1, z1)."); err != nil || !strings.HasPrefix(status, "OK 1") {
		t.Fatalf("load: %q %v", status, err)
	}
	_, after, err := c.query("anc(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("after LOAD: %d rows, want %d (new fact visible through views)", len(after), len(before)+1)
	}

	st, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["materialized"] != "incremental" {
		t.Errorf("materialized = %q, want incremental", st["materialized"])
	}
	if st["ivm_epochs"] != "2" {
		t.Errorf("ivm_epochs = %q, want 2", st["ivm_epochs"])
	}
	if st["ivm_scratch_fallbacks"] != "0" {
		t.Errorf("ivm_scratch_fallbacks = %q, want 0 on a monotone program", st["ivm_scratch_fallbacks"])
	}
	if st["ivm_view_queries"] != "2" {
		t.Errorf("ivm_view_queries = %q, want 2", st["ivm_view_queries"])
	}
	if st["ivm_last_delta_rows"] == "0" || st["ivm_last_delta_rows"] == "" {
		t.Errorf("ivm_last_delta_rows = %q, want > 0", st["ivm_last_delta_rows"])
	}
}

// gaugeRuns numbers TestTermInternedGauge's runs: the intern table is
// process-global, so each repetition (-count N) needs constants no
// earlier run interned.
var gaugeRuns int

// TestTermInternedGauge: STATS term_interned shows the intern table's
// growth. A LOAD of N fresh constants raises it by at least N; the
// same LOAD again adds no fact and interns nothing new.
func TestTermInternedGauge(t *testing.T) {
	gaugeRuns++
	c := dial(t, startServer(t, service.Config{}))
	interned := func() int {
		t.Helper()
		kv, err := c.stats()
		if err != nil {
			t.Fatalf("STATS: %v", err)
		}
		n, err := strconv.Atoi(kv["term_interned"])
		if err != nil {
			t.Fatalf("term_interned = %q: %v", kv["term_interned"], err)
		}
		return n
	}
	const n = 20
	var facts strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, "par(gauge_fresh_%d_%d, a1). ", gaugeRuns, i)
	}
	load := "LOAD " + facts.String()

	before := interned()
	if got, err := c.roundTrip(load); err != nil || !strings.HasPrefix(got, fmt.Sprintf("OK %d ", n)) {
		t.Fatalf("LOAD = %q, %v", got, err)
	}
	after := interned()
	if after < before+n {
		t.Errorf("term_interned %d → %d after loading %d fresh constants, want a rise of at least %d", before, after, n, n)
	}
	if got, err := c.roundTrip(load); err != nil || !strings.HasPrefix(got, "OK 0 ") {
		t.Fatalf("repeated LOAD = %q, %v", got, err)
	}
	if again := interned(); again != after {
		t.Errorf("term_interned %d → %d after a repeated LOAD, want no change", after, again)
	}
}
