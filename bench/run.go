package main

// One end-to-end run of one workload: set the servers up (several times,
// for a steady setup_s), drive the sessions over TCP through the warm-up
// and the measured window, check every answer, and read the servers'
// counters and peak memory before tearing everything down.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	warmup      = 2 * time.Second
	setupRepeat = 5                    // set-ups per run; setup_s is their median
	lateAfter   = 1 * time.Millisecond // open loop: a request sent this long after it was due is late
)

// runOpts are the knobs of one run. Only the smoke test changes anything
// but seed and window.
type runOpts struct {
	seed     int64
	window   time.Duration
	warmup   time.Duration
	sessions int // 0 = the workload's own
	setups   int // 0 = setupRepeat
	trace    bool
	// traceCount overrides the workload's traced-replay length (smoke test).
	traceCount int
}

// sample is one completed request.
type sample struct {
	start   time.Duration // when it was sent (closed loop) or due (open loop), from the run's t0
	latency time.Duration
	load    bool
	ok      bool
	late    bool
	first   bool // replica_ryw: the first wait= query after a LOAD
}

// runResult is what one run measured.
type runResult struct {
	attempted, failed int
	firstFailure      string

	window time.Duration
	all    verbStats // verbs pooled
	query  verbStats
	load   verbStats
	setupS float64
	rssMB  float64
	late   float64           // open loop: share of requests sent late
	extras map[string]metric // informational client.* values of this workload alone
	// statsDiff is the servers' STATS across the window, keyed
	// "<node>.<key>" (traced runs only).
	statsDiff map[string]int64
	// lagSamples is the follower's repl_lag sampled through the window of
	// a traced replica_ryw run.
	lagSamples []int64
	samples    []sample
}

// correct reports whether every attempted operation got the answer it
// must get.
func (r *runResult) correct() bool { return r.failed == 0 && r.attempted > 0 }

// verbStats summarises the correct operations of one verb (or all) that
// completed inside the measured window.
type verbStats struct {
	n                  int
	p50, p95, p99, max float64 // ms
}

func summarise(lat []time.Duration) verbStats {
	if len(lat) == 0 {
		return verbStats{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(q float64) float64 {
		return float64(lat[int(q*float64(len(lat)-1))]) / float64(time.Millisecond)
	}
	return verbStats{n: len(lat), p50: ms(0.50), p95: ms(0.95), p99: ms(0.99), max: ms(1)}
}

// cluster is a workload's running servers.
type cluster struct {
	env     *env
	def     *workloadDef
	in      *inputs
	program string // path of the program file
	nodes   []*node
	dirs    []string // per node: its storage directory, "" if none
	epoch   uint64   // node 0's epoch after preload
}

// startNode launches node i. dir is reused when non-empty (restart on the
// same directory), else a fresh one is made if the flags ask for one.
func (c *cluster) startNode(i int, dir string) (*node, error) {
	spec := c.in.nodes[i]
	flags := make([]string, len(spec.flags))
	for j, f := range spec.flags {
		switch f {
		case "{dir}":
			if dir == "" {
				var err error
				if dir, err = c.env.newDir(spec.name); err != nil {
					return nil, err
				}
			}
			f = dir
		case "{leader}":
			f = c.nodes[0].addr
		}
		flags[j] = f
	}
	n, err := c.env.start(c.def.name+"-"+spec.name, c.program, flags...)
	if err != nil {
		return nil, err
	}
	c.nodes[i], c.dirs[i] = n, dir
	return n, nil
}

// probeUntilCorrect dials n and repeats the set-up probe until it is
// answered correctly.
func (c *cluster) probeUntilCorrect(n *node) error {
	q := c.in.probe(c.epoch)
	deadline := time.Now().Add(60 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		cl, err := dial(n.addr)
		if err != nil {
			last = err.Error()
			time.Sleep(time.Millisecond)
			continue
		}
		rep, err := cl.roundTrip(q)
		cl.close()
		if err == nil && q.correct(rep) {
			return nil
		}
		last = fmt.Sprintf("reply %+v err %v", rep, err)
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s: set-up probe %q never answered correctly: %s", c.def.name, q.line, last)
}

// bringUp starts the workload's servers and returns the median set-up
// time: spawn of the last node → its first correct probe answer. Nodes
// before the last (the replica_ryw leader) are started and pre-loaded
// once; the last node is set up `setups` times and the final one kept.
func bringUp(e *env, def *workloadDef, in *inputs, setups int) (*cluster, float64, error) {
	c := &cluster{env: e, def: def, in: in,
		nodes: make([]*node, len(in.nodes)), dirs: make([]string, len(in.nodes))}
	c.program = filepath.Join(e.tmpDir, def.name+".ldl")
	if err := os.WriteFile(c.program, []byte(in.program), 0o644); err != nil {
		return nil, 0, err
	}
	last := len(in.nodes) - 1
	for i := 0; i < last; i++ {
		if _, err := c.startNode(i, ""); err != nil {
			return nil, 0, err
		}
	}
	if len(in.preload) > 0 {
		cl, err := dial(c.nodes[0].addr)
		if err != nil {
			return nil, 0, err
		}
		defer cl.close()
		for _, line := range in.preload {
			rep, err := cl.roundTrip(request{line: line, load: true})
			if err != nil || !rep.ok {
				return nil, 0, fmt.Errorf("%s: preload failed: %v %s", def.name, err, rep.err)
			}
			c.epoch = rep.epoch
		}
	}
	// Cheap set-ups are repeated more often, up to a second's worth: a
	// 4 ms process start needs more than five samples for a steady median.
	var times []float64
	var spent time.Duration
	for k := 0; k < setups || (spent < time.Second && k < 5*setups); k++ {
		if k > 0 {
			c.nodes[last].kill()
			if c.dirs[last] != "" {
				os.RemoveAll(c.dirs[last])
			}
		}
		t0 := time.Now()
		n, err := c.startNode(last, "")
		if err != nil {
			return nil, 0, err
		}
		if err := c.probeUntilCorrect(n); err != nil {
			return nil, 0, err
		}
		spent += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return c, times[len(times)/2], nil
}

// shutdown kills every node of the cluster and waits for each.
func (c *cluster) shutdown() {
	for _, n := range c.nodes {
		if n != nil {
			n.kill()
		}
	}
}

// nodeStats fetches STATS from every node.
func (c *cluster) nodeStats() ([]map[string]string, error) {
	out := make([]map[string]string, len(c.nodes))
	for i, n := range c.nodes {
		cl, err := dial(n.addr)
		if err != nil {
			return nil, err
		}
		out[i], err = cl.stats()
		cl.close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// drive runs one session against its own connections from t0 until end,
// closed loop (interval 0) or open loop with a request due every
// interval starting at t0+offset.
func drive(c *cluster, s session, t0, end time.Time, interval, offset time.Duration) ([]sample, string, error) {
	conns := make([]*client, len(c.nodes))
	for i, n := range c.nodes {
		cl, err := dial(n.addr)
		if err != nil {
			return nil, "", err
		}
		defer cl.close()
		conns[i] = cl
	}
	var (
		samples      []sample
		firstFailure string
		afterLoad    bool
	)
	for i := 0; ; i++ {
		start := time.Now()
		late := false
		if interval > 0 {
			due := t0.Add(offset + time.Duration(i)*interval)
			if d := due.Sub(start); d > 0 {
				time.Sleep(d)
			}
			late = time.Since(due) > lateAfter
			start = due
		}
		if !start.Before(end) {
			break
		}
		q := s.next()
		rep, err := conns[q.node].roundTrip(q)
		if err != nil {
			return samples, firstFailure, fmt.Errorf("%q: %w", q.line, err)
		}
		ok := q.correct(rep)
		if !ok && firstFailure == "" {
			firstFailure = fmt.Sprintf("%q -> %+v (want n=%d hash=%x)", q.line, rep, q.wantN, q.wantHash)
		}
		s.done(q, rep)
		samples = append(samples, sample{
			start: start.Sub(t0), latency: time.Since(start),
			load: q.load, ok: ok, late: late, first: afterLoad && !q.load,
		})
		afterLoad = q.load
	}
	return samples, firstFailure, nil
}

// runWorkload performs one full run.
func runWorkload(e *env, def *workloadDef, o runOpts) (*runResult, error) {
	in, err := def.build(o.seed)
	if err != nil {
		return nil, err
	}
	if o.sessions == 0 {
		o.sessions = def.sessions
	}
	if o.setups == 0 {
		o.setups = setupRepeat
	}
	c, setupS, err := bringUp(e, def, in, o.setups)
	if err != nil {
		return nil, err
	}
	defer c.shutdown()

	sessions := make([]session, o.sessions)
	for i := range sessions {
		sessions[i] = in.newSession(i, o.sessions)
	}
	var interval time.Duration
	if def.openRate > 0 {
		interval = time.Duration(float64(o.sessions) / def.openRate * float64(time.Second))
	}

	t0 := time.Now()
	warmEnd := t0.Add(o.warmup)
	end := warmEnd.Add(o.window)
	// The traced run reads the servers' STATS at the window's edges, from
	// a goroutine of its own so the sessions are never held up, and on
	// replica_ryw samples the follower's lag every 100 ms in between
	// (short-lived extra connections; a gated run makes none).
	var before, after []map[string]string
	var statsErr error
	var lagSamples []int64
	var wg sync.WaitGroup
	if o.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(warmEnd))
			before, statsErr = c.nodeStats()
			for len(c.nodes) > 1 && statsErr == nil && time.Now().Before(end) {
				time.Sleep(100 * time.Millisecond)
				if kv, err := c.nodeStats(); err == nil {
					lagSamples = append(lagSamples, statInt(kv[len(kv)-1], "repl_lag"))
				}
			}
		}()
	}

	type driven struct {
		samples []sample
		failure string
		err     error
	}
	results := make([]driven, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s session) {
			defer wg.Done()
			offset := interval * time.Duration(i) / time.Duration(len(sessions))
			r := &results[i]
			r.samples, r.failure, r.err = drive(c, s, t0, end, interval, offset)
		}(i, s)
	}
	wg.Wait()
	if o.trace && statsErr == nil {
		after, statsErr = c.nodeStats()
	}

	res := &runResult{window: o.window, setupS: setupS, lagSamples: lagSamples,
		extras: map[string]metric{}, statsDiff: map[string]int64{}}
	for _, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("%s: connection failed: %w", def.name, r.err)
		}
		if res.firstFailure == "" {
			res.firstFailure = r.failure
		}
		res.samples = append(res.samples, r.samples...)
	}
	if statsErr != nil {
		return nil, fmt.Errorf("%s: STATS: %w", def.name, statsErr)
	}
	for i, spec := range in.nodes[:len(after)] {
		for k := range after[i] {
			res.statsDiff[spec.name+"."+k] = statInt(after[i], k) - statInt(before[i], k)
		}
		// Gauges are wanted as they stand at the end, not as a diff.
		for _, k := range []string{"repl_lag", "repl_seeds"} {
			res.statsDiff[spec.name+"."+k+"_end"] = statInt(after[i], k)
		}
	}

	// Only operations inside the measured window count.
	var all, qs, ls []time.Duration
	lateN := 0
	for _, s := range res.samples {
		if s.start < o.warmup || s.start+s.latency > o.warmup+o.window {
			continue
		}
		res.attempted++
		if s.late {
			lateN++
		}
		if !s.ok {
			res.failed++
			continue
		}
		all = append(all, s.latency)
		if s.load {
			ls = append(ls, s.latency)
		} else {
			qs = append(qs, s.latency)
		}
	}
	res.all, res.query, res.load = summarise(all), summarise(qs), summarise(ls)
	if res.attempted > 0 {
		res.late = float64(lateN) / float64(res.attempted)
	}
	for _, n := range c.nodes {
		mb, err := n.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.rssMB += mb
	}

	if in.verify != nil {
		if err := durabilityCheck(c, sessions, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// dirBytes sums a storage directory's files: the write-ahead log's
// segments (log-*) and everything else (columnar segments, manifests).
func dirBytes(dir string) (wal, seg int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue // retired between ReadDir and Info
		}
		if strings.HasPrefix(ent.Name(), "log-") {
			wal += info.Size()
		} else {
			seg += info.Size()
		}
	}
	return wal, seg
}

// durabilityCheck kills the server with SIGKILL, restarts it on the same
// directory, and requires every acknowledged fact to be there. A process
// kill leaves the operating system's page cache intact, so this
// exercises the recovery path, not the device.
func durabilityCheck(c *cluster, sessions []session, res *runResult) error {
	q, userBytes := c.in.verify(sessions)
	walBytes, segBytes := dirBytes(c.dirs[0])
	c.nodes[0].kill()
	t0 := time.Now()
	n, err := c.startNode(0, c.dirs[0])
	if err != nil {
		return fmt.Errorf("%s: restart after kill -9: %w", c.def.name, err)
	}
	if err := c.probeUntilCorrect(n); err != nil {
		return err
	}
	res.extras["client.recovery_s"] = metric{time.Since(t0).Seconds(), "s"}
	cl, err := dial(n.addr)
	if err != nil {
		return err
	}
	defer cl.close()
	rep, err := cl.roundTrip(q)
	if err != nil {
		return fmt.Errorf("%s: durability query: %w", c.def.name, err)
	}
	res.attempted++
	if !q.correct(rep) {
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf("after kill -9 and restart: %d facts acknowledged, reply %+v", q.wantN, rep)
		}
	}
	res.extras["client.acked_facts"] = metric{float64(q.wantN), "count"}
	if userBytes > 0 {
		res.extras["client.segment_bytes_per_user_byte"] = metric{float64(segBytes) / float64(userBytes), "ratio"}
		res.extras["client.wal_live_bytes_per_user_byte"] = metric{float64(walBytes) / float64(userBytes), "ratio"}
	}
	return nil
}
