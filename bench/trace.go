package main

// The traced run: per-layer numbers, measured from outside the program.
//
// A fixed count of the workload's own seed-generated requests is
// replayed in process, against the same public calls the server makes,
// so the work counters repeat exactly for a given seed. Each request
// goes through two twins of the server's System, one after the other:
//
//   - the parent twin takes it through service.Service.Query / Load: one
//     parent span;
//   - the child twin takes it through the public calls beneath the
//     service, each a child span: ldl.QueryForm, System.Prepare,
//     Prepared.ExecuteStats, System.AnswersFromViews, System.InsertFacts
//     and, every 250 LOADs, System.Checkpoint.
//
// The pass runs with spans off and then on: the difference is the
// tracing overhead. For the write path the LOADs are replayed again on
// twins with durability and then materialisation switched off: the
// differences are the WAL's and the view maintenance's cost. store, term
// and parser are probed with direct timed calls over the workload's own
// facts.
//
// A layer's self time is its span minus the child spans inside it. Spans
// are kept in memory and written to bench/out/trace-<workload>.json when
// the replay ends. Spans inside the program are a later change.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ldl"
	"ldl/internal/parser"
	"ldl/internal/service"
	"ldl/internal/store"
	"ldl/internal/term"
)

const (
	traceWarmup     = 50  // requests replayed before recording starts
	checkpointEvery = 250 // child twin: LOADs between explicit checkpoints
	// serviceTimeout is ldlserver's default -timeout, which the service
	// turns into options on every execution.
	serviceTimeout = 10 * time.Second
)

// span is one timed call. Spans of one request share its trace id.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times calls and, when on, keeps a span for each.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) do(trace int, name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	if t.on {
		s := start.Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Trace: trace, Name: name, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	}
	return d
}

// twinOpts are the System options of an in-process twin of the server:
// what node 0's flags switch on, less what the caller switches off. A
// durable twin's checkpoint trigger is out of reach: the replay
// checkpoints explicitly, every checkpointEvery LOADs (about the bytes
// between two of the server's background flushes), so that flush and
// prune counts repeat exactly.
func twinOpts(in *inputs, dir string, durable, materialized bool) ([]ldl.SystemOption, error) {
	var opts []ldl.SystemOption
	if durable && in.durable {
		policy, err := ldl.ParseFsyncPolicy("always")
		if err != nil {
			return nil, err
		}
		opts = append(opts, ldl.WithStorageDir(dir), ldl.WithFsyncPolicy(policy, 0), ldl.WithCheckpointBytes(1<<40))
	}
	if materialized && in.materialized {
		opts = append(opts, ldl.WithMaterialized())
	}
	return opts, nil
}

func newTwin(e *env, in *inputs, durable, materialized bool) (*ldl.System, string, error) {
	dir, err := e.newDir("twin")
	if err != nil {
		return nil, "", err
	}
	opts, err := twinOpts(in, dir, durable, materialized)
	if err != nil {
		return nil, "", err
	}
	sys, err := ldl.Load(in.program, opts...)
	return sys, dir, err
}

// wireArg strips the verb (and a wait= token) off a protocol line: what
// the server hands to the service.
func wireArg(q request) string {
	_, rest, _ := strings.Cut(q.line, " ")
	if i := strings.LastIndex(rest, " wait="); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// replayStats is what one twin measured over the recorded requests.
type replayStats struct {
	queries, loads int
	failed         int
	firstFailure   string
	total          map[string]time.Duration // span name → summed duration
	perRequest     map[string][]time.Duration
	exec           ldl.ExecStats
	userBytes      int64
	goals          []string // recorded QUERY goals, for the parser probe
	facts          []string // recorded LOAD bodies, for the parser and store probes
}

func newReplayStats() *replayStats {
	return &replayStats{total: map[string]time.Duration{}, perRequest: map[string][]time.Duration{}}
}

func (rs *replayStats) add(name string, d time.Duration) {
	rs.total[name] += d
	rs.perRequest[name] = append(rs.perRequest[name], d)
}

func (rs *replayStats) count(name string) int { return len(rs.perRequest[name]) }

func (rs *replayStats) check(q request, rep reply, s session) {
	if !q.correct(rep) {
		rs.failed++
		if rs.firstFailure == "" {
			rs.firstFailure = fmt.Sprintf("replay %q -> %+v (want n=%d)", q.line, rep, q.wantN)
		}
	}
	s.done(q, rep)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

// parentTwin replays requests through service.Service: one parent span
// per request.
type parentTwin struct {
	sys *ldl.System
	svc *service.Service
	s   session
	rs  *replayStats
	hit bool // the last query found its plan cached
	// durable twins checkpoint every checkpointEvery LOADs, between
	// requests, exactly where the child twin does: both meet the same
	// store at every request.
	durable bool
	loads   int
}

func (t *parentTwin) step(i int, rec bool, tr *tracer) {
	ctx := context.Background()
	q := t.s.next()
	arg := wireArg(q)
	var rep reply
	if q.load {
		var added int
		var epoch uint64
		var err error
		d := tr.do(i, "service.Load", "", func() { added, epoch, err = t.svc.Load(ctx, arg) })
		rep = reply{ok: err == nil, n: added, epoch: epoch}
		if rec {
			t.rs.loads++
			t.rs.add("service.Load", d)
			t.rs.userBytes += int64(len(arg))
			t.rs.facts = append(t.rs.facts, arg)
		}
		if t.loads++; t.durable && t.loads%checkpointEvery == 0 {
			rep.ok = rep.ok && t.sys.Checkpoint() == nil
		}
	} else {
		var resp *service.Response
		var err error
		d := tr.do(i, "service.Query", "", func() { resp, err = t.svc.Query(ctx, arg) })
		t.hit = false
		if err == nil {
			rep = rowsReply(resp.Rows)
			t.hit = resp.CacheHit
		}
		if rec {
			t.rs.queries++
			t.rs.add("service.Query", d)
			t.rs.goals = append(t.rs.goals, arg)
			if err == nil {
				t.rs.exec.TuplesDerived += resp.Stats.TuplesDerived
				t.rs.exec.Lookups += resp.Stats.Lookups
				t.rs.exec.Iterations += resp.Stats.Iterations
				t.rs.exec.Blocks += resp.Stats.Blocks
				t.rs.exec.KernelCompiles += resp.Stats.KernelCompiles
				t.rs.exec.KernelFallbacks += resp.Stats.KernelFallbacks
			}
		}
	}
	t.rs.check(q, rep, t.s)
}

// childTwin replays the same requests on a System of its own through the
// public calls beneath the service, each a child span of the request's
// parent span. With timeQueries off it is a write-path twin: only
// InsertFacts is timed, queries just keep the session's state moving.
type childTwin struct {
	sys         *ldl.System
	s           session
	rs          *replayStats
	plans       map[string]*ldl.Prepared
	loads       int
	timeQueries bool
	// checkpointDir, when set, is the System's storage directory: a
	// System.Checkpoint is taken every checkpointEvery LOADs, and the log
	// bytes each one retires are added up in walBytes.
	checkpointDir string
	walBytes      int64
	walFloor      int64 // log bytes left behind by the previous checkpoint
}

// checkpoint takes one explicit System.Checkpoint as a child span.
func (t *childTwin) checkpoint(i int, tr *tracer) error {
	before, _ := dirBytes(t.checkpointDir)
	var err error
	t.rs.add("System.Checkpoint", tr.do(i, "System.Checkpoint", "service.Load", func() { err = t.sys.Checkpoint() }))
	t.walBytes += before - t.walFloor
	t.walFloor, _ = dirBytes(t.checkpointDir)
	return err
}

// step replays one request. hit says whether the parent twin found this
// request's plan cached, so that Prepare runs exactly when it ran there.
func (t *childTwin) step(i int, rec bool, tr *tracer, hit bool) {
	q := t.s.next()
	arg := wireArg(q)
	var children time.Duration // this request's child spans, summed
	add := func(name string, d time.Duration) {
		children += d
		if rec {
			t.rs.add(name, d)
		}
	}
	rep := reply{}
	switch {
	case q.load:
		var added int
		var epoch uint64
		var err error
		add("System.InsertFacts", tr.do(i, "System.InsertFacts", "service.Load", func() {
			added, epoch, err = t.sys.InsertFacts(arg)
		}))
		rep = reply{ok: err == nil, n: added, epoch: epoch}
		if rec {
			t.rs.loads++
			t.rs.add("load.children", children)
		}
		// The server checkpoints in the background; here it is taken
		// explicitly, outside the request's own children.
		if t.loads++; t.checkpointDir != "" && t.loads%checkpointEvery == 0 {
			rep.ok = rep.ok && t.checkpoint(i, tr) == nil
		}
	case !t.timeQueries:
		if rows, err := t.sys.Query(arg); err == nil {
			rep = rowsReply(rows)
		}
	case t.sys.Materialized():
		var rows [][]string
		var ok bool
		var err error
		add("System.AnswersFromViews", tr.do(i, "System.AnswersFromViews", "service.Query", func() {
			rows, ok, err = t.sys.AnswersFromViews(arg)
		}))
		if err == nil && ok {
			rep = rowsReply(rows)
		}
	default:
		var key string
		var err error
		add("ldl.QueryForm", tr.do(i, "ldl.QueryForm", "service.Query", func() { key, err = ldl.QueryForm(arg) }))
		p := t.plans[key]
		if err == nil && (!hit || p == nil) {
			add("System.Prepare", tr.do(i, "System.Prepare", "service.Query", func() { p, err = t.sys.Prepare(arg) }))
			t.plans[key] = p
		}
		if err == nil {
			// The options the service passes on every execution.
			var rows [][]string
			add("Prepared.ExecuteStats", tr.do(i, "Prepared.ExecuteStats", "service.Query", func() {
				rows, _, err = p.ExecuteStats(arg, ldl.WithTimeout(serviceTimeout), ldl.WithContext(context.Background()))
			}))
			if err == nil {
				rep = rowsReply(rows)
			}
		}
	}
	if rec && !q.load && t.timeQueries {
		t.rs.queries++
		t.rs.add("query.children", children)
	}
	t.rs.check(q, rep, t.s)
}

// probes are the direct timed calls into store, term and parser over the
// workload's own facts and goals.
type probes struct {
	insertNsPerFact, lookupNs, internNs float64
	goalUs, factsPerS                   float64
	parseLoadUs                         float64 // parser.ParseProgram per recorded LOAD body
}

func runProbes(in *inputs, goals, loadBodies []string) (probes, error) {
	var p probes
	// The workload's facts: the program's own plus the replayed LOADs'.
	text := in.program + "\n" + strings.Join(loadBodies, "\n")
	t0 := time.Now()
	prog, _, err := parser.ParseProgram(text)
	if err != nil {
		return p, fmt.Errorf("probe: parse: %w", err)
	}
	if n := len(prog.Facts); n > 0 {
		p.factsPerS = float64(n) / time.Since(t0).Seconds()
	}
	if len(loadBodies) > 0 {
		t0 = time.Now()
		for _, body := range loadBodies {
			if _, _, err := parser.ParseProgram(body); err != nil {
				return p, fmt.Errorf("probe: parse LOAD: %w", err)
			}
		}
		p.parseLoadUs = float64(time.Since(t0).Microseconds()) / float64(len(loadBodies))
	}
	if len(goals) > 0 {
		t0 = time.Now()
		for _, g := range goals {
			if _, err := parser.ParseLiteral(g); err != nil {
				return p, fmt.Errorf("probe: parse goal: %w", err)
			}
		}
		p.goalUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(goals))
	}
	if len(prog.Facts) == 0 {
		return p, nil
	}
	nterms := 0
	t0 = time.Now()
	for _, f := range prog.Facts {
		for _, a := range f.Head.Args {
			term.Intern(a)
			nterms++
		}
	}
	p.internNs = float64(time.Since(t0).Nanoseconds()) / float64(nterms)

	rels := map[string]*store.Relation{}
	t0 = time.Now()
	for _, f := range prog.Facts {
		r := rels[f.Head.Tag()]
		if r == nil {
			r = store.NewRelation(f.Head.Pred, f.Head.Arity())
			rels[f.Head.Tag()] = r
		}
		if _, err := r.Insert(store.Tuple(f.Head.Args)); err != nil {
			return p, fmt.Errorf("probe: insert: %w", err)
		}
	}
	p.insertNsPerFact = float64(time.Since(t0).Nanoseconds()) / float64(len(prog.Facts))

	// Point lookups on the first column, the access path every workload's
	// rules use; the first pass builds the index and is not timed.
	for pass := 0; pass < 2; pass++ {
		t0 = time.Now()
		for _, f := range prog.Facts {
			probe := make(store.Tuple, f.Head.Arity())
			probe[0] = f.Head.Args[0]
			rels[f.Head.Tag()].Lookup(1, probe)
		}
	}
	p.lookupNs = float64(time.Since(t0).Nanoseconds()) / float64(len(prog.Facts))
	return p, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func perOp(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(total) / float64(n)
}

// layerNames are the layers self time is shared among, in print order.
var layerNames = []string{"server", "service", "parser", "optimize", "eval", "store", "ivm", "wal", "segment"}

// pairedReplay is one pass of the replay: each request goes through the
// parent twin and then, at once, through the child twin, so that both
// see the same process state (heap, caches) and their medians can be
// subtracted.
type pairedReplay struct {
	parent  *parentTwin
	child   *childTwin
	elapsed time.Duration // parent-side time only: what the tracing overhead is read from
	// Counter baselines, read when the warm-up requests are over.
	svcWarm service.Stats
	ivmWarm ldl.IVMStats
	segDir  string // the child twin's storage directory
}

// close closes both twins' Systems.
func (r *pairedReplay) close() error {
	if err := r.parent.sys.Close(); err != nil {
		return err
	}
	return r.child.sys.Close()
}

func runPairedReplay(e *env, in *inputs, count int, tr *tracer) (*pairedReplay, error) {
	psys, _, err := newTwin(e, in, true, true)
	if err != nil {
		return nil, err
	}
	csys, segDir, err := newTwin(e, in, true, true)
	if err != nil {
		return nil, err
	}
	csys.EnableStatsFeedback(true) // as service.New does for the parent
	r := &pairedReplay{
		parent: &parentTwin{sys: psys, s: in.newSession(0, 1), rs: newReplayStats(), durable: in.durable,
			svc: service.New(psys, service.Config{MaxPlans: 128, DefaultTimeout: serviceTimeout})},
		child: &childTwin{sys: csys, s: in.newSession(0, 1), rs: newReplayStats(),
			plans: map[string]*ldl.Prepared{}, timeQueries: true},
		segDir: segDir,
	}
	if in.durable {
		r.child.checkpointDir = segDir
	}
	for i := 0; i < traceWarmup+count; i++ {
		if i == traceWarmup {
			r.svcWarm, r.ivmWarm = r.parent.svc.Stats(), psys.IVMStats()
		}
		t0 := time.Now()
		r.parent.step(i, i >= traceWarmup, tr)
		r.elapsed += time.Since(t0)
		r.child.step(i, i >= traceWarmup, tr, r.parent.hit)
	}
	return r, nil
}

// wireReplay sends the same requests, one connection, closed loop, to a
// fresh real server and times each from send to last row read. The
// request sequence and so the state it meets are the parent twin's, so
// the difference of the medians is the wire: protocol parse, TCP,
// rendering, and the process boundary — without contention between
// sessions, which the gated run's own median includes.
func wireReplay(e *env, def *workloadDef, in *inputs, count int) (*replayStats, error) {
	c, _, err := bringUp(e, def, in, 1)
	if err != nil {
		return nil, err
	}
	defer c.shutdown()
	cl, err := dial(c.nodes[0].addr)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rs := newReplayStats()
	s := in.newSession(0, 1)
	for i := 0; i < traceWarmup+count; i++ {
		q := s.next()
		t0 := time.Now()
		rep, err := cl.roundTrip(q)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: wire replay: %w", def.name, err)
		}
		if i >= traceWarmup {
			if q.load {
				rs.add("LOAD", d)
			} else {
				rs.add("QUERY", d)
			}
		}
		rs.check(q, rep, s)
	}
	return rs, nil
}

// writePathTwin replays the workload's LOADs on a System with durability
// (and, if asked, materialisation) switched off and returns the summed
// InsertFacts time.
func writePathTwin(e *env, in *inputs, count int, materialized bool) (time.Duration, int, error) {
	sys, _, err := newTwin(e, in, false, materialized)
	if err != nil {
		return 0, 0, err
	}
	t := &childTwin{sys: sys, s: in.newSession(0, 1), rs: newReplayStats()}
	for i := 0; i < traceWarmup+count; i++ {
		t.step(i, i >= traceWarmup, &tracer{}, false)
	}
	return t.rs.total["System.InsertFacts"], t.rs.failed, sys.Close()
}

// traceWorkload produces every per-layer metric for one workload. res is
// the traced run's own end-to-end window (one closed-loop session, same
// seed): the source of the wire time, the real server's STATS diff and
// the replication numbers.
func traceWorkload(e *env, def *workloadDef, o runOpts, res *runResult) (map[string]metric, bool, error) {
	m := map[string]metric{}
	for _, spec := range perLayer {
		m[spec.name] = metric{0, spec.unit}
	}
	set := func(name string, v float64) {
		if _, ok := m[name]; !ok {
			panic("bench: metric " + name + " is not in perLayer")
		}
		m[name] = metric{v, m[name].Unit}
	}
	in, err := def.build(o.seed)
	if err != nil {
		return nil, false, err
	}
	set("resource.rejected", float64(res.statsDiff[in.nodes[0].name+".rejected"]))
	if def.traceCount == 0 {
		replMetrics(res, set)
		return m, true, nil
	}
	count := def.traceCount
	if o.traceCount > 0 {
		count = o.traceCount
	}

	var off *pairedReplay // the spans-off pass
	// Three passes: a short discarded one that warms the process (heap
	// growth, interned terms), then spans off, then spans on.
	for _, n := range []int{count / 4, count} {
		off, err = runPairedReplay(e, in, n, &tracer{})
		if err != nil {
			return nil, false, err
		}
		if err := off.close(); err != nil {
			return nil, false, err
		}
	}
	tr := &tracer{on: true, t0: time.Now()}
	bloom0, zone0, row0 := store.PruneStats()
	r, err := runPairedReplay(e, in, count, tr)
	if err != nil {
		return nil, false, err
	}
	parent, child := r.parent.rs, r.child.rs
	svcStats, ivm := r.parent.svc.Stats(), r.parent.sys.IVMStats()
	if in.durable {
		if err := r.child.checkpoint(traceWarmup+count, tr); err != nil {
			return nil, false, fmt.Errorf("%s: final checkpoint: %w", def.name, err)
		}
	}
	storage := r.child.sys.StorageStats()
	if err := r.close(); err != nil {
		return nil, false, err
	}
	_, segBytes := dirBytes(r.segDir)
	var bootAttach time.Duration
	if in.durable {
		opts, err := twinOpts(in, r.segDir, true, true)
		if err != nil {
			return nil, false, err
		}
		t0 := time.Now()
		again, err := ldl.Load(in.program, opts...)
		if err != nil {
			return nil, false, fmt.Errorf("%s: boot attach: %w", def.name, err)
		}
		bootAttach = time.Since(t0)
		if err := again.Close(); err != nil {
			return nil, false, err
		}
	}

	// Write-path twins: the same LOADs without durability, then without
	// materialisation either.
	failed := parent.failed + child.failed
	insertFull := child.total["System.InsertFacts"]
	insertMem, insertPlain := insertFull, insertFull
	if parent.loads > 0 && in.durable {
		var bad int
		if insertMem, bad, err = writePathTwin(e, in, count, true); err != nil {
			return nil, false, err
		}
		failed += bad
		insertPlain = insertMem
	}
	if parent.loads > 0 && in.materialized {
		var bad int
		if insertPlain, bad, err = writePathTwin(e, in, count, false); err != nil {
			return nil, false, err
		}
		failed += bad
	}
	wire, err := wireReplay(e, def, in, count)
	if err != nil {
		return nil, false, err
	}
	failed += wire.failed
	pr, err := runProbes(in, parent.goals, parent.facts)
	if err != nil {
		return nil, false, err
	}
	if err := writeSpans(e, def.name, tr.spans); err != nil {
		return nil, false, err
	}

	// ---- the metrics ----
	nq, nl := parent.queries, parent.loads
	clip := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	// The service's self time and the wire time are differences of
	// medians: a stray GC pause in one of the two does not move them.
	svcSelfQ := clip(median(parent.perRequest["service.Query"]) - median(child.perRequest["query.children"]))
	svcSelfL := clip(median(parent.perRequest["service.Load"]) - median(child.perRequest["load.children"]))
	wireQ := clip(median(wire.perRequest["QUERY"]) - median(parent.perRequest["service.Query"]))
	wireL := clip(median(wire.perRequest["LOAD"]) - median(parent.perRequest["service.Load"]))
	parseLoads := time.Duration(pr.parseLoadUs * 1e3 * float64(nl))
	self := map[string]time.Duration{
		"server":   wireQ*time.Duration(nq) + wireL*time.Duration(nl),
		"service":  svcSelfQ*time.Duration(nq) + svcSelfL*time.Duration(nl),
		"parser":   child.total["ldl.QueryForm"] + parseLoads,
		"optimize": child.total["System.Prepare"],
		"eval":     child.total["Prepared.ExecuteStats"],
		"store":    clip(insertPlain - parseLoads),
		"ivm":      child.total["System.AnswersFromViews"] + clip(insertMem-insertPlain),
		"wal":      clip(insertFull - insertMem),
		"segment":  child.total["System.Checkpoint"],
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	for _, l := range layerNames {
		if sum > 0 {
			set("share."+l+"_pct", 100*float64(self[l])/float64(sum))
		}
	}
	set("server.wire_us", perOp(self["server"], nq+nl))
	set("service.self_us", perOp(self["service"], nq+nl))
	set("parser.goal_us", pr.goalUs)
	set("parser.facts_per_s", pr.factsPerS)
	hits, misses := svcStats.Hits-r.svcWarm.Hits, svcStats.Misses-r.svcWarm.Misses
	if hits+misses > 0 {
		set("service.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	set("service.evictions", float64(svcStats.Evictions-r.svcWarm.Evictions))
	set("service.revalidations", float64(svcStats.Revalidations-r.svcWarm.Revalidations))
	set("optimize.calls", float64(child.count("System.Prepare")))
	set("optimize.prepare_us", perOp(child.total["System.Prepare"], child.count("System.Prepare")))
	set("eval.execute_us", perOp(child.total["Prepared.ExecuteStats"], child.count("Prepared.ExecuteStats")))
	if nq > 0 {
		q := float64(nq)
		set("eval.tuples_derived", float64(parent.exec.TuplesDerived)/q)
		set("eval.lookups", float64(parent.exec.Lookups)/q)
		set("eval.iterations", float64(parent.exec.Iterations)/q)
		set("eval.blocks", float64(parent.exec.Blocks)/q)
		set("eval.kernel_compiles", float64(parent.exec.KernelCompiles)/q)
		set("eval.kernel_fallbacks", float64(parent.exec.KernelFallbacks)/q)
		set("ivm.view_answer_ratio", float64(svcStats.ViewQueries-r.svcWarm.ViewQueries)/q)
	}
	set("ivm.view_probe_us", perOp(child.total["System.AnswersFromViews"], child.count("System.AnswersFromViews")))
	set("store.insert_ns_per_fact", pr.insertNsPerFact)
	set("store.lookup_ns", pr.lookupNs)
	set("term.intern_ns", pr.internNs)
	set("ivm.maintain_us", perOp(clip(insertMem-insertPlain), nl))
	set("wal.append_us", perOp(clip(insertFull-insertMem), nl))
	if nl > 0 {
		set("ivm.delta_rows_per_load", float64(ivm.DeltaRows-r.ivmWarm.DeltaRows)/float64(nl))
	}
	set("ivm.incremental_rounds", float64(ivm.IncrementalRounds-r.ivmWarm.IncrementalRounds))
	set("ivm.scratch_fallbacks", float64(ivm.ScratchFallbacks-r.ivmWarm.ScratchFallbacks))
	if parent.userBytes > 0 && in.durable {
		set("wal.bytes_per_user_byte", float64(r.child.walBytes)/float64(parent.userBytes))
		set("segment.bytes_per_user_byte", float64(segBytes)/float64(parent.userBytes))
	}
	set("segment.checkpoint_ms", perOp(child.total["System.Checkpoint"], child.count("System.Checkpoint"))/1e3)
	set("segment.flushes", float64(storage.Flushes))
	set("segment.boot_attach_ms", us(bootAttach)/1e3)
	set("segment.bloom_prunes", float64(storage.BloomPrunes-bloom0))
	set("segment.zone_prunes", float64(storage.ZonePrunes-zone0))
	set("segment.row_bloom_skips", float64(storage.RowBloomSkips-row0))
	set("trace.overhead_pct", 100*float64(r.elapsed-off.elapsed)/float64(off.elapsed))

	// Span medians, for the reader of the run; the metrics above are what
	// is recorded.
	for _, rs := range []*replayStats{wire, parent, child} {
		names := make([]string, 0, len(rs.perRequest))
		for name := range rs.perRequest {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-14s span %-26s n=%-5d p50=%9.1f us  total=%9.1f ms\n", def.name, name,
				rs.count(name), us(median(rs.perRequest[name])), us(rs.total[name])/1e3)
		}
	}
	fmt.Printf("%-14s twins InsertFacts total: full=%.1f ms, no-wal=%.1f ms, no-wal-no-views=%.1f ms\n", def.name,
		us(insertFull)/1e3, us(insertMem)/1e3, us(insertPlain)/1e3)
	if failed > 0 {
		msg := parent.firstFailure
		if msg == "" {
			msg = child.firstFailure
		}
		fmt.Printf("%-14s traced replay: %d wrong answers; first: %s\n", def.name, failed, msg)
	}
	return m, failed == 0, nil
}

// replMetrics derives the replication layer's numbers from the real
// nodes: replica_ryw has no in-process replay.
func replMetrics(res *runResult, set func(string, float64)) {
	var first, rest []time.Duration
	lagging := 0
	for _, s := range res.samples {
		switch {
		case s.load:
		case !s.ok:
			lagging++
		case s.first:
			first = append(first, s.latency)
		default:
			rest = append(rest, s.latency)
		}
	}
	// Leader ack → epoch visible on the follower: how much longer the
	// first wait= query after a LOAD takes than the ones that find the
	// epoch already applied.
	if d := median(first) - median(rest); d > 0 {
		set("repl.ship_apply_ms", us(d)/1e3)
	}
	set("repl.lag_retries", float64(lagging))
	if n := len(res.lagSamples); n > 0 {
		sort.Slice(res.lagSamples, func(i, j int) bool { return res.lagSamples[i] < res.lagSamples[j] })
		set("repl.lag_epochs_p50", float64(res.lagSamples[n/2]))
	}
	set("repl.seeds", float64(res.statsDiff["follower.repl_seeds_end"]))
}

func writeSpans(e *env, workload string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+workload+".json"), data, 0o644)
}
