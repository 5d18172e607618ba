// Package fleet is the deterministic batch executor: it runs N fused
// simulate+analyze pipelines (core.RunAnalyze) concurrently over one
// shared core budget and one memory budget, and merges their reports
// and metrics in config order.
//
// The PR 4 three-rule determinism contract extends across runs:
//
//  1. Runs are independent domains — no shared mutable state. Each run
//     gets its own registries, collector, RNGs; the only shared objects
//     are immutable (cached topologies) or results-neutral (the worker
//     pool, which decides where tasks execute, never what they compute).
//  2. Per-run outputs are disjoint slots: outcome i is written only by
//     run i's goroutine, before its completion is signaled.
//  3. Fleet output is a fixed-order merge keyed by config index, on the
//     coordinator, after every run completes.
//
// Under these rules fleet concurrency, pool size and memory budget can
// only reorder wall-clock execution — every per-run report digest is
// bit-identical to running that config standalone.
package fleet

import (
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of worker goroutines executing submitted
// closures in FIFO order. It implements core.Executor, so one Pool can
// be injected into every concurrent run's analysis pipeline
// (core.WithTaskExecutor): analysis window tasks from all runs
// interleave on the same workers, so a run draining its tail cannot
// idle cores another run could use.
//
// Submitted closures must not block on the Pool themselves (the core
// seam guarantees this: its tasks only compute and signal channels
// owned by their coordinator), so a bounded Pool cannot deadlock. Go
// never blocks the submitter; backpressure is the submitter's own (the
// analysis in-flight semaphore).
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool

	workers   int
	tasks     atomic.Int64 // total closures executed
	queuePeak atomic.Int64 // high-water mark of the pending queue
}

// NewPool starts a pool with the given number of worker goroutines
// (minimum 1). Call Close when done.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// Go enqueues fn for execution. It never blocks and never drops fn.
// Panics if called after Close.
func (p *Pool) Go(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("fleet: Pool.Go after Close")
	}
	p.queue = append(p.queue, fn)
	if n := int64(len(p.queue)); n > p.queuePeak.Load() {
		p.queuePeak.Store(n)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Close drains the queue and stops the workers. Safe to call once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Tasks reports the total closures executed so far.
func (p *Pool) Tasks() int64 { return p.tasks.Load() }

// QueuePeak reports the high-water mark of the pending queue.
func (p *Pool) QueuePeak() int64 { return p.queuePeak.Load() }

func (p *Pool) worker() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		fn := p.queue[0]
		// The pop order below is FIFO but which worker pops is
		// scheduler-dependent — results-neutral by rule 1 of the package
		// contract: the queue holds opaque closures whose outputs land in
		// slots owned by their submitting pipeline, so dequeue order
		// decides only where/when work runs, never what it computes.
		//dctlint:ignore mergeorder queue dispatch is results-neutral; task outputs use the submitters' disjoint slots
		p.queue = p.queue[1:]
		if len(p.queue) == 0 {
			//dctlint:ignore mergeorder queue dispatch is results-neutral; task outputs use the submitters' disjoint slots
			p.queue = nil // let the backing array go once drained
		}
		p.mu.Unlock()
		// Telemetry-only counter, read after the coordinator's join.
		//dctlint:ignore mergeorder commutative telemetry count read only after Execute's barrier
		p.tasks.Add(1)
		fn()
	}
}
