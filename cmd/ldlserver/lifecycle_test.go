package main

// Lifecycle tests: connection hygiene (idle deadlines, poison-request
// isolation), protocol-level overload behavior, and the durable
// shutdown→restart round trip.

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ldl"
	"ldl/internal/service"
)

// startCustom starts a server around an existing System, applying
// configure to the server before it begins accepting. shutdown runs the
// same sequence main runs on SIGINT/SIGTERM: close the listener, drain
// through the admission gate, close surviving connections, wait for
// serve to return.
func startCustom(t *testing.T, sys *ldl.System, cfg service.Config, configure func(*server)) (addr string, srv *server, shutdown func(drain time.Duration)) {
	t.Helper()
	srv = newServer(sys, cfg)
	if configure != nil {
		configure(srv)
	}
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
	stopped := false
	shutdown = func(drain time.Duration) {
		if stopped {
			return
		}
		stopped = true
		l.Close()
		srv.drain(drain)
		<-done
	}
	t.Cleanup(func() { shutdown(time.Second) })
	return l.Addr().String(), srv, shutdown
}

func TestIdleTimeout(t *testing.T) {
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startCustom(t, sys, service.Config{}, func(s *server) {
		s.idleTimeout = 50 * time.Millisecond
	})
	c := dial(t, addr)
	// An active connection is not cut: each request renews the deadline.
	for i := 0; i < 3; i++ {
		if got, err := c.roundTrip("PING"); err != nil || got != "OK 0" {
			t.Fatalf("PING %d = %q, %v", i, got, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Going quiet trips the deadline: one diagnostic line, then close.
	got, err := c.readLine()
	if err != nil || got != "ERR idle timeout" {
		t.Fatalf("idle line = %q, %v; want ERR idle timeout", got, err)
	}
	if _, err := c.readLine(); err != io.EOF {
		t.Fatalf("connection should be closed after idle timeout, got %v", err)
	}
}

// TestPoisonRequestIsolation: a request that panics inside the handler
// (injected through the server's poison seam) must produce an ERR on
// its own connection and leave both that connection and the rest of the
// server fully usable.
func TestPoisonRequestIsolation(t *testing.T) {
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startCustom(t, sys, service.Config{}, func(s *server) {
		s.poison = func(line string) {
			if strings.Contains(line, "BOOM") {
				panic("poison request: " + line)
			}
		}
	})
	victim := dial(t, addr)
	bystander := dial(t, addr)
	if got, err := bystander.roundTrip("PING"); err != nil || got != "OK 0" {
		t.Fatalf("bystander PING = %q, %v", got, err)
	}
	if got, err := victim.roundTrip("QUERY BOOM(X)"); err != nil || got != "ERR internal error" {
		t.Fatalf("poison request = %q, %v; want ERR internal error", got, err)
	}
	// The poisoned connection keeps working...
	if status, rows, err := victim.query("sg(b1, Y)"); err != nil || !strings.HasPrefix(status, "OK ") || len(rows) == 0 {
		t.Fatalf("victim after poison: %q (%d rows), %v", status, len(rows), err)
	}
	// ...and so does everyone else.
	if got, err := bystander.roundTrip("PING"); err != nil || got != "OK 0" {
		t.Fatalf("bystander after poison = %q, %v", got, err)
	}
}

// TestOverloadLine pins the protocol contract for load shedding: the
// response is a single parseable "ERR overloaded retry: ..." line and
// the connection remains usable for the retry it invites.
func TestOverloadLine(t *testing.T) {
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, _ := startCustom(t, sys, service.Config{MaxConcurrent: 1, MaxQueue: -1}, nil)
	// Deterministic overload: occupy the single admission slot directly.
	release, err := srv.svc.AdmissionGate().Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	got, err := c.roundTrip("QUERY sg(b1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "ERR overloaded retry: ") {
		t.Fatalf("overloaded response = %q, want ERR overloaded retry: ...", got)
	}
	// The slot frees up; the same connection's retry succeeds.
	release()
	status, rows, err := c.query("sg(b1, Y)")
	if err != nil || !strings.HasPrefix(status, "OK ") || len(rows) == 0 {
		t.Fatalf("retry after release: %q (%d rows), %v", status, len(rows), err)
	}
}

// TestDrainRefusesRequests: during the shutdown drain, surviving
// connections get a clean refusal instead of a hang or a silent close.
func TestDrainRefusesRequests(t *testing.T) {
	sys, err := ldl.Load(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, _ := startCustom(t, sys, service.Config{}, nil)
	c := dial(t, addr)
	if got, err := c.roundTrip("PING"); err != nil || got != "OK 0" {
		t.Fatalf("PING = %q, %v", got, err)
	}
	srv.draining.Store(true)
	if got, err := c.roundTrip("PING"); err != nil || got != "ERR shutting down" {
		t.Fatalf("PING while draining = %q, %v", got, err)
	}
	if _, err := c.readLine(); err != io.EOF {
		t.Fatalf("connection should close after refusal, got %v", err)
	}
}

// TestDurableRestartRoundTrip is the end-to-end acceptance test: boot a
// durable server, LOAD facts over the wire, shut down the way main
// does (drain, then Close for the final checkpoint), boot a fresh
// server on the same directory, and demand byte-identical QUERY
// responses.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	boot := func() *ldl.System {
		sys, err := ldl.Load(serverSrc, ldl.WithStorageDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sys := boot()
	addr, _, shutdown := startCustom(t, sys, service.Config{}, nil)
	c := dial(t, addr)
	for i := 0; i < 3; i++ {
		got, err := c.roundTrip(fmt.Sprintf("LOAD par(n%d, b1). par(b1, n%d).", i, i))
		if err != nil || !strings.HasPrefix(got, "OK 2 ") {
			t.Fatalf("LOAD %d = %q, %v", i, got, err)
		}
	}
	collect := func(c *client) []string {
		var all []string
		for _, goal := range []string{"anc(X, Y)", "sg(b1, Y)", "anc(n0, Y)"} {
			status, rows, err := c.query(goal)
			if err != nil || !strings.HasPrefix(status, "OK ") {
				t.Fatalf("QUERY %s = %q, %v", goal, status, err)
			}
			all = append(all, status)
			all = append(all, rows...)
		}
		return all
	}
	want := collect(c)

	shutdown(time.Second)
	if err := sys.Close(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	// The drained connection is dead.
	if got, err := c.roundTrip("PING"); err == nil {
		t.Fatalf("old connection answered %q after shutdown", got)
	}

	sys2 := boot()
	if rep := sys2.Recovery(); rep == nil || rep.Epoch == 0 {
		t.Fatalf("restart recovery = %+v", rep)
	}
	addr2, _, _ := startCustom(t, sys2, service.Config{}, nil)
	got := collect(dial(t, addr2))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("restart changed answers:\nbefore:\n%s\nafter:\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}
