package main

// The wire client: one connection of ldlserver's line protocol. It reads
// exactly what the first response token announces and hashes answer rows
// as they stream past, so checking an answer costs no allocation.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"
)

type client struct {
	conn net.Conn
	r    *bufio.Reader
	out  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// roundTrip sends one request line and reads its whole response. An ERR
// line is a reply with ok=false; only transport failures are errors.
func (c *client) roundTrip(q request) (reply, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	c.out = append(append(c.out[:0], q.line...), '\n')
	if _, err := c.conn.Write(c.out); err != nil {
		return reply{}, err
	}
	head, err := c.readLine()
	if err != nil {
		return reply{}, err
	}
	if !bytes.HasPrefix(head, []byte("OK ")) {
		return reply{err: string(head)}, nil
	}
	rest := head[3:]
	num := rest
	if i := bytes.IndexByte(rest, ' '); i >= 0 {
		num = rest[:i]
	}
	n, err := strconv.Atoi(string(num))
	if err != nil {
		return reply{}, fmt.Errorf("malformed response %q", head)
	}
	rep := reply{ok: true, n: n}
	if q.load {
		// "OK <added> epoch=<e> term=<t>"
		if i := bytes.Index(rest, []byte("epoch=")); i >= 0 {
			e := rest[i+len("epoch="):]
			if j := bytes.IndexByte(e, ' '); j >= 0 {
				e = e[:j]
			}
			rep.epoch, _ = strconv.ParseUint(string(e), 10, 64)
		}
		return rep, nil
	}
	for i := 0; i < n; i++ {
		row, err := c.readLine()
		if err != nil {
			return reply{}, err
		}
		rep.hash += hashRow(row)
	}
	return rep, nil
}

// readLine returns the next line without its newline; the slice is only
// valid until the next read.
func (c *client) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// stats fetches the server's STATS as a key → value map.
func (c *client) stats() (map[string]string, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.conn.Write([]byte("STATS\n")); err != nil {
		return nil, err
	}
	head, err := c.readLine()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(string(bytes.TrimPrefix(head, []byte("OK "))))
	if err != nil {
		return nil, fmt.Errorf("malformed STATS response %q", head)
	}
	kv := make(map[string]string, n)
	for i := 0; i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if k, v, ok := bytes.Cut(line, []byte("=")); ok {
			kv[string(k)] = string(v)
		}
	}
	return kv, nil
}

// statInt reads one integer STATS value; absent keys read as 0.
func statInt(kv map[string]string, key string) int64 {
	v, _ := strconv.ParseInt(kv[key], 10, 64)
	return v
}
