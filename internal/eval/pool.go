package eval

import (
	"sync"

	"ldl/internal/store"
)

// maxPooledRows caps the rows of capacity a released engine may keep
// across its derived, input and delta relations. A run that grew its
// relations past it is dropped rather than pooled, so one large answer
// does not keep its memory alive behind every later small one.
const maxPooledRows = 1 << 16

// Pool recycles the engines of one precompiled program — a prepared
// query form's — across runs. A released engine keeps its derived,
// input and delta relations emptied but with their capacity, so the
// next run of the form neither allocates them nor regrows them. The
// zero value is ready to use; an engine is built on the first Get, so
// a pool costs nothing until its program first runs. Safe for
// concurrent use; each engine serves one run at a time.
type Pool struct {
	p sync.Pool
}

// Get returns an engine for one run of pk's program over db: a
// released one when the pool has it, else a new one. opts.Kernels is
// set to pk.
func (p *Pool) Get(pk *ProgramKernels, db *store.Database, opts Options) *Engine {
	opts.Kernels = pk
	if e, _ := p.p.Get().(*Engine); e != nil {
		opts.norm()
		e.DB, e.opts = db, opts
		return e
	}
	e, err := New(pk.prog, db, opts)
	if err != nil {
		panic(err) // unreachable: New takes pk's graph and analyzes nothing
	}
	return e
}

// Put releases e, which must have come from Get on this pool, and
// whose results the caller no longer reads. Every relation the engine
// owns is emptied — it keeps no rows, indexes or parts — and its
// references to the database, the governor and the epoch's size hints
// are dropped, so a pooled engine pins no epoch. An engine that grew
// past maxPooledRows is dropped instead.
func (p *Pool) Put(e *Engine) {
	rows := 0
	for _, r := range e.own {
		if r != nil {
			rows += r.Capacity()
		}
	}
	for _, d := range e.deltas {
		for _, set := range d {
			for _, r := range set {
				rows += r.Capacity()
			}
		}
	}
	if rows > maxPooledRows {
		return
	}
	for _, r := range e.own {
		if r != nil {
			r.Reset()
		}
	}
	for _, d := range e.deltas {
		for _, set := range d {
			for _, r := range set {
				r.Reset()
			}
		}
	}
	clear(e.rels)
	e.DB, e.opts, e.Counters, e.ran = nil, Options{}, Counters{}, false
	p.p.Put(e)
}
