package main

// The six workloads: what the server is started with, the requests each
// session sends, and the answer every request must get. All inputs are
// a pure function of the seed. Expected answers come from the
// generator's closed form (tree ancestors, same-generation leaves,
// chain reachability over the session's own acknowledged LOADs, the
// session's own writes) or, for cold_forms, from
// System.EvaluateUnoptimized over the same facts — never from the
// optimized path.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ldl"
	"ldl/internal/workload"
)

// request is one protocol line plus the answer it must get.
type request struct {
	node     int    // index into the workload's nodes
	line     string // protocol line, no newline
	load     bool   // LOAD (else QUERY)
	wantN    int    // rows (QUERY) or facts added (LOAD)
	wantHash uint64 // order-independent row hash (QUERY)
}

// reply is what came back for one request, over TCP or in process.
type reply struct {
	ok    bool
	n     int
	hash  uint64
	epoch uint64 // LOAD acknowledgements only
	err   string
}

// correct reports whether rep is the answer req must get. A wrong
// answer is a failed operation exactly like an ERR line.
func (q request) correct(rep reply) bool {
	if !rep.ok || rep.n != q.wantN {
		return false
	}
	return q.load || rep.hash == q.wantHash
}

// session is one client's request stream. next is called only after the
// previous request's reply went through done, so a session may let its
// later requests (and their expected answers) depend on what the server
// acknowledged.
type session interface {
	next() request
	done(q request, rep reply)
}

// nodeSpec is one server process. In flags, "{dir}" is replaced by a
// fresh directory under the run's temp dir and "{leader}" by the
// address node 0 listens on.
type nodeSpec struct {
	name  string
	flags []string
}

// inputs is everything one run of a workload needs, generated from the
// seed before any server starts.
type inputs struct {
	program string
	nodes   []nodeSpec
	// preload is sent to node 0 before the other nodes start (LOAD lines).
	preload []string
	// probe is the set-up probe for the last node: set-up ends at its
	// first correct answer. epoch is node 0's epoch after preload.
	probe func(epoch uint64) request
	// newSession builds session idx of n.
	newSession func(idx, n int) session
	// durable and materialized say what node 0's flags switch on, for the
	// traced run's in-process twins of the server.
	durable, materialized bool
	// verify, set only by load_durable, returns the request that must be
	// answered correctly after a kill -9 and restart on the same
	// directory, and the bytes of fact text the sessions had acknowledged.
	verify func(ss []session) (q request, userBytes int64)
}

// workloadDef names a workload and fixes its shape; the numbers here are
// the same on every commit.
type workloadDef struct {
	name string
	why  string
	// sessions is the number of concurrent sessions in a measured run
	// (one connection each; a replica_ryw session holds one connection
	// to each node).
	sessions int
	// openRate > 0 makes the workload open loop at this total arrival
	// rate (requests/s): frozen at about half the closed-loop capacity
	// measured once on the reference container (2 cores).
	openRate float64
	// traceCount is the number of requests the traced replay records.
	traceCount int
	build      func(seed int64) (*inputs, error)
}

const mixedViewsRate = 330 // requests/s, total; see bench/README.md

var workloads = []workloadDef{
	{name: "point_hot", sessions: 2, traceCount: 2000, build: buildPointHot,
		why: "one cached query form, 7-row magic-seeded fixpoint: the fixed per-request costs (protocol, admission, cache lookup, binding, fork, render) dominate; optimizer bypassed"},
	{name: "sg_fixpoint", sessions: 2, traceCount: 2000, build: buildSGFixpoint,
		why: "same cache-hit path but a 729-row same-generation fixpoint: eval kernels, store probes/inserts and row rendering dominate"},
	{name: "cold_forms", sessions: 2, traceCount: 500, build: buildColdForms,
		why: "384 query forms cycled through a 128-plan LRU, so every request misses: parse, adorn, NR-OPT/OPT search, cost and kernel compile dominate; working set larger than the cache"},
	{name: "load_durable", sessions: 2, traceCount: 2000, build: buildLoadDurable,
		why: "write-only 16-fact LOADs with fsync=always and a 1 MiB checkpoint trigger: fact parse, interning, insert, stats update, WAL group commit and segment flushes; no optimizer, no fixpoint"},
	{name: "mixed_views", sessions: 2, openRate: mixedViewsRate, traceCount: 2000, build: buildMixedViews,
		why: "open loop, 90% view-served QUERY beside 10% durable LOAD with incremental view maintenance: reads and writes share the store/epoch machinery, stalls show as queueing"},
	{name: "replica_ryw", sessions: 1, traceCount: 0, build: buildReplicaRYW,
		why: "LOAD at a durable leader then 4 QUERY wait=<epoch> at a follower: the only workload with log shipping, follower apply and WaitEpoch on the blocking path"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- row hashing ----

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashRow hashes one rendered answer row. Responses are compared by row
// count plus the sum of row hashes, which ignores order but not
// multiplicity.
func hashRow(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	// Finalize so that the sum over rows does not cancel on rows that
	// differ in one trailing byte.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func hashRowString(s string) uint64 { return hashRow([]byte(s)) }

// rowsReply turns an in-process answer set into the reply the wire
// client would have built from the rendered lines.
func rowsReply(rows [][]string) reply {
	rep := reply{ok: true, n: len(rows)}
	for _, r := range rows {
		rep.hash += hashRowString(strings.Join(r, ","))
	}
	return rep
}

// ---- static query sessions (point_hot, sg_fixpoint, cold_forms) ----

// querySession sends gen(i) for i = idx, idx+n, idx+2n, ...: the global
// request sequence dealt round-robin to the n sessions.
type querySession struct {
	i, n int
	gen  func(i int) request
}

func (s *querySession) next() request {
	q := s.gen(s.i)
	s.i += s.n
	return q
}

func (s *querySession) done(request, reply) {}

// indexRand is a cheap stateless draw: the i-th value of the seed's
// stream, so any session can generate request i without shared state.
func indexRand(seed int64, i int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ---- 1. point_hot ----

const (
	treeFanout = 4
	treeDepth  = 7
)

func treeNode(level, i int) string { return "n" + strconv.Itoa(level) + "_" + strconv.Itoa(i) }

func buildPointHot(seed int64) (*inputs, error) {
	var b strings.Builder
	b.WriteString("anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\n")
	width := 1
	for l := 1; l <= treeDepth; l++ {
		width *= treeFanout
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, "par(%s, %s).\n", treeNode(l, i), treeNode(l-1, i/treeFanout))
		}
	}
	leaves := width
	gen := func(i int) request {
		leaf := int(indexRand(seed, i) % uint64(leaves))
		name := treeNode(treeDepth, leaf)
		q := request{line: "QUERY anc(" + name + ", Y)", wantN: treeDepth}
		for l, a := treeDepth-1, leaf/treeFanout; l >= 0; l, a = l-1, a/treeFanout {
			q.wantHash += hashRowString(name + "," + treeNode(l, a))
		}
		return q
	}
	return &inputs{
		program:    b.String(),
		nodes:      []nodeSpec{{name: "server"}},
		probe:      func(uint64) request { return gen(0) },
		newSession: func(idx, n int) session { return &querySession{i: idx, n: n, gen: gen} },
	}, nil
}

// ---- 2. sg_fixpoint ----

var sgSpec = workload.SameGenSpec{Depth: 6, Fanout: 3}

func buildSGFixpoint(seed int64) (*inputs, error) {
	leaves := 1
	for i := 0; i < sgSpec.Depth; i++ {
		leaves *= sgSpec.Fanout
	}
	// Every leaf is in the same generation as every leaf (itself
	// included), so sg(leaf_i, Y) is leaf_i paired with all leaves.
	want := make([]uint64, leaves)
	for i := range want {
		li := workload.SameGenLeaf(sgSpec, i)
		for j := 0; j < leaves; j++ {
			want[i] += hashRowString(li + "," + workload.SameGenLeaf(sgSpec, j))
		}
	}
	gen := func(i int) request {
		leaf := int(indexRand(seed, i) % uint64(leaves))
		return request{
			line:  "QUERY sg(" + workload.SameGenLeaf(sgSpec, leaf) + ", Y)",
			wantN: leaves, wantHash: want[leaf],
		}
	}
	return &inputs{
		program:    workload.SameGen(sgSpec),
		nodes:      []nodeSpec{{name: "server"}},
		probe:      func(uint64) request { return gen(0) },
		newSession: func(idx, n int) session { return &querySession{i: idx, n: n, gen: gen} },
	}, nil
}

// ---- 3. cold_forms ----

const (
	coldPreds     = 96
	coldPatterns  = 4 // ff, bf, fb, bb
	coldBaseRels  = 12
	coldWitnesses = 6    // planted satisfying assignments per predicate
	coldDomain    = 4000 // constants k0..k3999
	coldMaxRows   = 50
)

// coldProgram generates the rule base and its data. Predicate d<i> has a
// 5-7-goal conjunctive body in one of the chain/star/cycle shapes of
// workload.RandomConjunct over distinct base relations. The data is
// planted: for every predicate, coldWitnesses random assignments of its
// body variables are inserted into the base relations it joins, which
// gives each of the 12 relations about 96*6*6/12 = 288 rows and every
// predicate a small non-empty extension.
func coldProgram(r *rand.Rand) string {
	var rules strings.Builder
	facts := make([]map[[2]int]bool, coldBaseRels)
	for i := range facts {
		facts[i] = map[[2]int]bool{}
	}
	for p := 0; p < coldPreds; p++ {
		n := 5 + (p/3)%3 // every shape × size equally often, whatever the seed
		rels := r.Perm(coldBaseRels)[:n]
		shape := workload.Shape(p % 3)
		// goals[g] = (variable of column 0, variable of column 1)
		goals := make([][2]int, n)
		nvars := n + 1
		for g := range goals {
			switch shape {
			case workload.Chain:
				goals[g] = [2]int{g, g + 1}
			case workload.Star:
				goals[g] = [2]int{0, g + 1}
			case workload.Cycle:
				goals[g] = [2]int{g, (g + 1) % n}
				nvars = n
			}
		}
		headB := 1
		if shape == workload.Chain {
			headB = n
		}
		fmt.Fprintf(&rules, "d%d(X0, X%d) <- ", p, headB)
		for g, vs := range goals {
			if g > 0 {
				rules.WriteString(", ")
			}
			fmt.Fprintf(&rules, "r%d(X%d, X%d)", rels[g], vs[0], vs[1])
		}
		rules.WriteString(".\n")
		for w := 0; w < coldWitnesses; w++ {
			val := make([]int, nvars)
			for v := range val {
				val[v] = r.Intn(coldDomain)
			}
			for g, vs := range goals {
				facts[rels[g]][[2]int{val[vs[0]], val[vs[1]]}] = true
			}
		}
	}
	// Emit facts in a deterministic order (map iteration is not).
	for rel, set := range facts {
		rows := make([][2]int, 0, len(set))
		for row := range set {
			rows = append(rows, row)
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i][0] != rows[j][0] {
				return rows[i][0] < rows[j][0]
			}
			return rows[i][1] < rows[j][1]
		})
		for _, row := range rows {
			fmt.Fprintf(&rules, "r%d(k%d, k%d).\n", rel, row[0], row[1])
		}
	}
	return rules.String()
}

func buildColdForms(seed int64) (*inputs, error) {
	prog := coldProgram(rand.New(rand.NewSource(seed)))
	// The oracle: each predicate's full extension by unoptimized
	// semi-naive evaluation; a bound query form's answer is that
	// extension filtered on the bound columns.
	sys, err := ldl.Load(prog)
	if err != nil {
		return nil, fmt.Errorf("cold_forms: load: %w", err)
	}
	ext := make([][][]string, coldPreds)
	for p := range ext {
		rows, _, err := sys.EvaluateUnoptimized(fmt.Sprintf("d%d(A, B)", p))
		if err != nil {
			return nil, fmt.Errorf("cold_forms: oracle d%d: %w", p, err)
		}
		if len(rows) == 0 || len(rows) > coldMaxRows {
			return nil, fmt.Errorf("cold_forms: d%d has %d answers, want 1..%d", p, len(rows), coldMaxRows)
		}
		ext[p] = rows
	}
	gen := func(i int) request {
		form := i % (coldPreds * coldPatterns)
		p, pattern := form%coldPreds, form/coldPreds
		rows := ext[p]
		w := rows[indexRand(seed, i)%uint64(len(rows))]
		a, b := "A", "B"
		if pattern&1 != 0 {
			a = w[0]
		}
		if pattern&2 != 0 {
			b = w[1]
		}
		q := request{line: fmt.Sprintf("QUERY d%d(%s, %s)", p, a, b)}
		for _, row := range rows {
			if (pattern&1 == 0 || row[0] == a) && (pattern&2 == 0 || row[1] == b) {
				q.wantN++
				q.wantHash += hashRowString(row[0] + "," + row[1])
			}
		}
		return q
	}
	return &inputs{
		program:    prog,
		nodes:      []nodeSpec{{name: "server"}},
		probe:      func(uint64) request { return gen(0) },
		newSession: func(idx, n int) session { return &querySession{i: idx, n: n, gen: gen} },
	}, nil
}

// ---- 4. load_durable ----

const (
	loadBatch = 16
	// loadCheckpointBytes is the WAL size that triggers a segment flush.
	// The issue asked for 1 MiB; at this container's ~400 fsynced LOADs/s
	// that is one flush per window, so it is 128 KiB: about one flush a
	// second, several cycles inside every window.
	loadCheckpointBytes = 128 << 10
)

// loadSession sends batch idx, idx+n, ...; batch g is 16 edge facts whose
// first column is the batch id, so no fact ever repeats.
type loadSession struct {
	seed int64
	g, n int
	// The batch in flight: the sum of its rendered rows' hashes.
	pendingHash uint64
	// What the server has acknowledged so far.
	acked     int
	ackedHash uint64
	userBytes int64
}

func (s *loadSession) next() request {
	var b strings.Builder
	b.WriteString("LOAD")
	s.pendingHash = 0
	for j := 0; j < loadBatch; j++ {
		a := "b" + strconv.Itoa(s.g)
		v := "v" + strconv.Itoa(j<<16|int(indexRand(s.seed, s.g*loadBatch+j)&0xffff))
		b.WriteString(" edge(" + a + ", " + v + ").")
		s.pendingHash += hashRowString(a + "," + v)
	}
	s.g += s.n
	return request{line: b.String(), load: true, wantN: loadBatch}
}

func (s *loadSession) done(q request, rep reply) {
	if !q.correct(rep) {
		return
	}
	s.acked += loadBatch
	s.ackedHash += s.pendingHash
	s.userBytes += int64(len(q.line) - len("LOAD "))
}

func buildLoadDurable(seed int64) (*inputs, error) {
	return &inputs{
		program: "link(X, Y) <- edge(X, Y).\nedge(s0, s1).\n",
		nodes: []nodeSpec{{name: "server", flags: []string{
			"-storage-dir", "{dir}", "-fsync", "always", "-checkpoint-bytes", strconv.Itoa(loadCheckpointBytes)}}},
		durable: true,
		probe: func(uint64) request {
			return request{line: "QUERY link(s0, Y)", wantN: 1, wantHash: hashRowString("s0,s1")}
		},
		newSession: func(idx, n int) session { return &loadSession{seed: seed, g: idx, n: n} },
		verify: func(ss []session) (request, int64) {
			q := request{line: "QUERY link(X, Y)", wantN: 1, wantHash: hashRowString("s0,s1")}
			var bytes int64
			for _, s := range ss {
				ls := s.(*loadSession)
				q.wantN += ls.acked
				q.wantHash += ls.ackedHash
				bytes += ls.userBytes
			}
			return q, bytes
		},
	}, nil
}

// ---- 5. mixed_views ----

const (
	mixedComponents = 64
	mixedInitLen    = 16 // edges per chain at boot
	mixedExtend     = 4  // edges one LOAD appends to one chain
	mixedTail       = 16 // queries start within this many nodes of a chain's end
	mixedLoadShare  = 10 // percent of requests that are LOADs
)

func chainNode(k, i int) string { return "c" + strconv.Itoa(k) + "_" + strconv.Itoa(i) }

// mixedSession owns the components k with k % n == idx. Nobody else
// writes to them, so the session knows each chain's acknowledged length
// and with it the exact answer to tc(node, Y): every later node.
type mixedSession struct {
	r      *rand.Rand
	own    []int
	length map[int]int // acknowledged edges per owned chain
	loadAt int         // round-robin cursor over own for LOADs
	loaded int         // component the in-flight LOAD extends
}

func (s *mixedSession) next() request {
	if s.r.Intn(100) < mixedLoadShare {
		k := s.own[s.loadAt%len(s.own)]
		s.loadAt++
		s.loaded = k
		var b strings.Builder
		b.WriteString("LOAD")
		for j, l := 0, s.length[k]; j < mixedExtend; j++ {
			fmt.Fprintf(&b, " e(%s, %s).", chainNode(k, l+j), chainNode(k, l+j+1))
		}
		return request{line: b.String(), load: true, wantN: mixedExtend}
	}
	k := s.own[s.r.Intn(len(s.own))]
	l := s.length[k]
	from := l - 1 - s.r.Intn(mixedTail)
	name := chainNode(k, from)
	q := request{line: "QUERY tc(" + name + ", Y)", wantN: l - from}
	for j := from + 1; j <= l; j++ {
		q.wantHash += hashRowString(name + "," + chainNode(k, j))
	}
	return q
}

func (s *mixedSession) done(q request, rep reply) {
	if q.load && q.correct(rep) {
		s.length[s.loaded] += mixedExtend
	}
}

func buildMixedViews(seed int64) (*inputs, error) {
	var b strings.Builder
	b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	for k := 0; k < mixedComponents; k++ {
		for i := 0; i < mixedInitLen; i++ {
			fmt.Fprintf(&b, "e(%s, %s).\n", chainNode(k, i), chainNode(k, i+1))
		}
	}
	newSession := func(idx, n int) session {
		s := &mixedSession{
			r:      rand.New(rand.NewSource(seed*31 + int64(idx))),
			length: map[int]int{},
		}
		for k := idx; k < mixedComponents; k += n {
			s.own = append(s.own, k)
			s.length[k] = mixedInitLen
		}
		return s
	}
	return &inputs{
		program: b.String(),
		nodes: []nodeSpec{{name: "server", flags: []string{
			"-materialize", "incremental", "-storage-dir", "{dir}", "-fsync", "always"}}},
		durable: true, materialized: true,
		probe: func(uint64) request {
			q := request{line: "QUERY tc(" + chainNode(0, 0) + ", Y)", wantN: mixedInitLen}
			for j := 1; j <= mixedInitLen; j++ {
				q.wantHash += hashRowString(chainNode(0, 0) + "," + chainNode(0, j))
			}
			return q
		},
		newSession: newSession,
	}, nil
}

// ---- 6. replica_ryw ----

const (
	replicaPreload      = 50000
	replicaPreloadBatch = 1000
	replicaWrites       = 4 // facts per LOAD, and wait= queries per session round
)

// rywSession is one read-your-writes round after another: LOAD 4 facts
// at the leader (node 0), then read each back at the follower (node 1)
// with wait=<acknowledged epoch>.
type rywSession struct {
	seed   int64
	idx    int
	round  int
	step   int // 0 = LOAD, 1..4 = queries
	epoch  uint64
	keys   [replicaWrites]string
	values [replicaWrites]string
}

func (s *rywSession) next() request {
	if s.step == 0 {
		var b strings.Builder
		b.WriteString("LOAD")
		for j := range s.keys {
			s.keys[j] = fmt.Sprintf("w%d_%d_%d", s.idx, s.round, j)
			s.values[j] = strconv.FormatUint(indexRand(s.seed, s.round*replicaWrites+j)%1000000, 10)
			fmt.Fprintf(&b, " kv(%s, %s).", s.keys[j], s.values[j])
		}
		return request{node: 0, line: b.String(), load: true, wantN: replicaWrites}
	}
	j := s.step - 1
	return request{
		node:  1,
		line:  fmt.Sprintf("QUERY has(%s, V) wait=%d", s.keys[j], s.epoch),
		wantN: 1, wantHash: hashRowString(s.keys[j] + "," + s.values[j]),
	}
}

func (s *rywSession) done(q request, rep reply) {
	if q.load {
		if !q.correct(rep) {
			s.round++ // nothing to read back; start a new round
			return
		}
		s.epoch = rep.epoch
	}
	if s.step++; s.step > replicaWrites {
		s.step = 0
		s.round++
	}
}

func buildReplicaRYW(seed int64) (*inputs, error) {
	in := &inputs{
		program: "has(K, V) <- kv(K, V).\n",
		nodes: []nodeSpec{
			{name: "leader", flags: []string{"-data-dir", "{dir}", "-fsync", "always"}},
			{name: "follower", flags: []string{"-replica-of", "{leader}"}},
		},
		probe: func(epoch uint64) request {
			v := strconv.FormatUint(indexRand(seed, -1)%1000000, 10)
			return request{
				node: 1, line: fmt.Sprintf("QUERY has(p0, V) wait=%d", epoch),
				wantN: 1, wantHash: hashRowString("p0," + v),
			}
		},
		newSession: func(idx, n int) session { return &rywSession{seed: seed, idx: idx} },
	}
	for base := 0; base < replicaPreload; base += replicaPreloadBatch {
		var b strings.Builder
		b.WriteString("LOAD")
		for i := base; i < base+replicaPreloadBatch; i++ {
			fmt.Fprintf(&b, " kv(p%d, %d).", i, indexRand(seed, -1-i)%1000000)
		}
		in.preload = append(in.preload, b.String())
	}
	return in, nil
}
