// Package service is the concurrent query service: the layer that
// turns one library System and its Plans into something a server can
// expose. It owns three mechanisms:
//
//   - A prepared-plan cache. Each incoming goal is parsed once
//     (ldl.ParseGoal) into its adorned form key (predicate + binding
//     pattern + constant positions, as ldl.QueryForm) and its
//     constants; the Optimize→rewrite→compile-kernels pipeline runs
//     once per form, and subsequent queries of the same form hand the
//     parsed goal to the cached Prepared, which binds the constants'
//     interned IDs into relations of a pooled engine and runs the
//     cached register-frame programs. The cache is a
//     size-capped LRU with hit/miss/eviction counters; an entry is
//     invalidated when the fact base advances past the epoch it was
//     optimized under and the statistics its plan read have changed.
//
//   - Snapshot-isolated serving. Readers execute against immutable
//     epoch snapshots of the store while the single writer applies fact
//     batches and atomically publishes new epochs (the System's epoch
//     discipline); a query's answers are always exactly the fixpoint of
//     some published epoch, never a torn mix of two.
//
//   - Admission control. A bounded concurrency limiter with a bounded
//     wait queue sheds excess load with resource.ErrOverloaded instead
//     of queueing without bound, and per-request deadlines ride the
//     resource governor into the optimizer and engines.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ldl"
	"ldl/internal/resource"
)

// ErrOverloaded is re-exported so servers can match load shedding
// without importing internal/resource directly.
var ErrOverloaded = resource.ErrOverloaded

// Config sizes the service. Zero values select the defaults noted on
// each field.
type Config struct {
	// MaxPlans caps the prepared-plan cache (default 128).
	MaxPlans int
	// MaxConcurrent bounds queries executing at once (default 8);
	// negative disables admission control entirely.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a slot (default
	// 2×MaxConcurrent); negative means no queue — shed the instant
	// every slot is busy.
	MaxQueue int
	// DefaultTimeout bounds each request's wall clock via the resource
	// governor (default 0 = no per-request deadline).
	DefaultTimeout time.Duration
	// Options are applied to every Prepare and Execute.
	Options []ldl.Option
}

func (c Config) withDefaults() Config {
	if c.MaxPlans <= 0 {
		c.MaxPlans = 128
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	switch {
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	return c
}

// Stats is the service-wide counter snapshot the STATS command renders.
type Stats struct {
	Epoch         uint64
	PlanCacheSize int
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	// Revalidations counts cache hits that survived an epoch advance:
	// the entry's statistics fingerprint was rechecked against the new
	// epoch's catalog and found unchanged, so the plan was kept instead
	// of re-prepared.
	Revalidations int64
	Queries       int64
	Loads         int64
	Errors        int64
	// ViewQueries counts answers served from the materialized views
	// (bypassing the planner and the plan cache entirely).
	ViewQueries int64
	Admission   resource.AdmissionStats
}

// Response is one query's answer set plus provenance: which epoch it
// saw, whether the plan came from the cache (or the answer from the
// materialized views), and the work counters.
type Response struct {
	Rows     [][]string
	Stats    ldl.ExecStats
	CacheHit bool
	// FromViews marks an answer served directly from the materialized
	// derived relations: no optimization, no fixpoint, an index probe.
	FromViews bool
}

// Service serves queries against one System for its whole life. All
// methods are safe for concurrent use; Load serializes inside the
// System (single-writer epoch discipline).
type Service struct {
	cfg Config
	adm *resource.Admission
	sys *ldl.System

	mu      sync.Mutex
	entries map[string]*list.Element // key -> element whose Value is *entry
	lru     *list.List               // front = most recent

	hits, misses, evictions, invalidations atomic.Int64
	revalidations                          atomic.Int64
	queries, loads, errs                   atomic.Int64
	viewHits                               atomic.Int64
}

// entry is one cached prepared form.
type entry struct {
	key string
	p   *ldl.Prepared
}

// New builds a service around sys. Its plans read only the statistics
// gathered from each epoch's facts, so a leader, its followers and a
// restarted leader plan every epoch alike.
func New(sys *ldl.System, cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		adm:     resource.NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		sys:     sys,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// System returns the served System.
func (s *Service) System() *ldl.System { return s.sys }

// AdmissionGate exposes the service's admission controller. Servers use
// it to drain on shutdown (wait for Active and Queued to reach zero)
// and tests use it to occupy slots deterministically.
func (s *Service) AdmissionGate() *resource.Admission { return s.adm }

// Query answers one goal. The goal is parsed once; the plan comes from
// the prepared-plan cache when its canonical form (ldl.QueryForm;
// constants nested in compound arguments are parameters too) is cached
// and fresh, otherwise the form is prepared (optimized + compiled) and
// cached. The parsed goal is then executed without being read again: a
// cache hit pays for binding its constants as interned IDs, the
// fixpoint and the answer. Under overload Query returns ErrOverloaded
// without doing any work.
func (s *Service) Query(ctx context.Context, goal string) (*Response, error) {
	release, err := s.adm.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.queries.Add(1)
	resp, err := s.query(ctx, goal)
	if err != nil {
		s.errs.Add(1)
	}
	return resp, err
}

func (s *Service) query(ctx context.Context, goal string) (*Response, error) {
	// A materialized System serves straight from its views: the answers
	// are the same epoch-consistent fixpoint the optimize path would
	// compute, already maintained incrementally by the write path. Goals
	// the views cannot serve (parse errors surface below; predicates the
	// program does not define) fall through to the planner.
	if s.sys.Materialized() {
		if rows, ok, err := s.sys.AnswersFromViews(goal); err == nil && ok {
			s.viewHits.Add(1)
			return &Response{Rows: rows, Stats: ldl.ExecStats{Epoch: s.sys.Epoch()}, FromViews: true}, nil
		}
	}
	g, err := ldl.ParseGoal(goal)
	if err != nil {
		return nil, err
	}
	key := g.Key()
	p, hit := s.lookup(key)
	if !hit {
		// Prepare outside the cache lock: optimization can be slow and
		// must not serialize unrelated queries. Two racing misses on
		// the same form both prepare; the second insert wins — wasted
		// work once, never wrong answers.
		p, err = s.sys.Prepare(goal, s.cfg.Options...)
		if err != nil {
			return nil, err
		}
		s.insert(key, p)
	}
	rows, es, err := p.ExecuteGoal(g, s.execOptions(ctx)...)
	if err != nil {
		return nil, err
	}
	return &Response{Rows: rows, Stats: es, CacheHit: hit}, nil
}

func (s *Service) execOptions(ctx context.Context) []ldl.Option {
	opts := append([]ldl.Option(nil), s.cfg.Options...)
	if s.cfg.DefaultTimeout > 0 {
		opts = append(opts, ldl.WithTimeout(s.cfg.DefaultTimeout))
	}
	if ctx != nil {
		opts = append(opts, ldl.WithContext(ctx))
	}
	return opts
}

// lookup returns the cached prepared form for key if present and fresh.
// Freshness is epoch-delta aware: an entry prepared under an older
// epoch is revalidated against the current catalog (Prepared.Fresh)
// and kept when the statistics its plan was optimized over are
// unchanged — only an entry whose inputs actually moved is dropped,
// counting as an invalidation plus a miss.
func (s *Service) lookup(key string) (*ldl.Prepared, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*entry)
	fresh, revalidated := ent.p.Fresh()
	if !fresh {
		s.lru.Remove(el)
		delete(s.entries, key)
		s.invalidations.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	if revalidated {
		s.revalidations.Add(1)
	}
	s.lru.MoveToFront(el)
	s.hits.Add(1)
	return ent.p, true
}

// insert caches a prepared form, evicting from the LRU tail past the
// size cap.
func (s *Service) insert(key string, p *ldl.Prepared) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		// A racing prepare beat us; keep the newer plan.
		el.Value = &entry{key: key, p: p}
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, p: p})
	for s.lru.Len() > s.cfg.MaxPlans {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.(*entry).key)
		s.evictions.Add(1)
	}
}

// Load applies a batch of facts and publishes a new epoch. Cached plans
// are revalidated lazily: the next lookup keeps an entry whose
// statistics fingerprint still holds and re-prepares the rest.
func (s *Service) Load(ctx context.Context, facts string) (added int, epoch uint64, err error) {
	release, err := s.adm.Acquire(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer release()
	s.loads.Add(1)
	added, epoch, err = s.sys.InsertFacts(facts)
	if err != nil {
		s.errs.Add(1)
	}
	return added, epoch, err
}

// ErrLagging reports a read-your-writes wait that timed out: the
// replica had not applied the requested epoch within the bound. Match
// with errors.Is; the concrete *LaggingError carries how far behind
// the replica still was.
var ErrLagging = errors.New("service: lagging behind requested epoch")

// LaggingError is the typed ErrLagging: the epoch the client asked to
// observe and the epoch the replica had reached when the wait gave up.
type LaggingError struct {
	Want uint64
	At   uint64
}

func (e *LaggingError) Error() string {
	return fmt.Sprintf("service: lagging: want epoch %d, at %d (behind %d)", e.Want, e.At, e.Behind())
}

// Behind is how many epochs short of the request the replica was.
func (e *LaggingError) Behind() uint64 {
	if e.Want <= e.At {
		return 0
	}
	return e.Want - e.At
}

// Is makes errors.Is(err, ErrLagging) match.
func (e *LaggingError) Is(target error) bool { return target == ErrLagging }

// WaitEpoch blocks until the served System has published epoch >= want,
// the context is done, or timeout elapses (0 = don't wait at all beyond
// one check). It is the read-your-writes primitive: a client that wrote
// through the leader and saw "epoch=E" acknowledged passes wait=E to a
// replica read, and the read either observes the write or fails with a
// *LaggingError saying how far behind the replica is. The wait sleeps
// until the System publishes (ldl.System.Changed), so it returns the
// moment the epoch lands.
func (s *Service) WaitEpoch(ctx context.Context, want uint64, timeout time.Duration) error {
	at := s.sys.Epoch()
	if at >= want {
		return nil
	}
	if timeout <= 0 {
		return &LaggingError{Want: want, At: at}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		changed := s.sys.Changed()
		if s.sys.Epoch() >= want {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			if at = s.sys.Epoch(); at >= want {
				return nil
			}
			return &LaggingError{Want: want, At: at}
		}
	}
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	size := s.lru.Len()
	s.mu.Unlock()
	return Stats{
		Epoch:         s.sys.Epoch(),
		PlanCacheSize: size,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
		Revalidations: s.revalidations.Load(),
		Queries:       s.queries.Load(),
		Loads:         s.loads.Load(),
		Errors:        s.errs.Load(),
		ViewQueries:   s.viewHits.Load(),
		Admission:     s.adm.Stats(),
	}
}
