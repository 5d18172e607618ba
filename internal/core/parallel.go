package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism resolves a zero worker count — the analysis
// pipeline's Parallelism, and the fleet's concurrency and pool size:
// GOMAXPROCS, clamped to 1 on a single-proc box so no pool (and none of
// its channel handoffs) is spun up when there is no parallelism to buy
// with it. An explicit count is always honored unchanged.
func DefaultParallelism() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 1
}

// The analysis pipeline's determinism contract, in three rules:
//
//  1. Decomposition is data-driven. Shard counts and window boundaries
//     are functions of the input size only — never of the worker count —
//     so the same record set always produces the same task graph.
//  2. Tasks own their output slots. Every task writes results into a
//     pre-sized slot indexed by its shard/window number; no two tasks
//     share a mutable location, so scheduling order cannot race or
//     reorder anything.
//  3. Merges are single-goroutine and fixed-order. After a task group
//     completes, the coordinator reduces the slots in slot order. All
//     float accumulation happens there (or inside one task over the
//     canonical record order), never across goroutines.
//
// Under these rules the worker count only decides how many tasks run at
// once — Parallelism: 1 executes the identical sharded algorithm on one
// goroutine — so the report is bit-identical at any parallelism.

// recordShardTarget sizes the streaming pipeline's record chunks (Fig 7
// join, attribution, Fig 9 CDFs): big enough that per-chunk overhead is
// noise, small enough that a paper-scale run (~2M records) fans out
// well.
const recordShardTarget = 1 << 17

// streamPool runs figure-window and record-chunk tasks for the
// streaming pipeline. It accepts work incrementally — tasks are
// submitted as the sweep closes windows — under the three-rule contract
// above: every submitted task writes one pre-sized slot, and the
// coordinator merges completed slots in submission order via the
// per-task done channels (the "ready prefix"), never in completion
// order. The task channel's small buffer is the pipeline's
// backpressure: a slow pool blocks the sweep, bounding in-flight window
// copies and unmerged slots by O(workers), which is what keeps
// streaming analysis memory O(window).
type streamPool struct {
	ctx    context.Context
	seq    bool
	exec   Executor      // external shared pool; nil → own goroutines
	sem    chan struct{} // exec mode: caps in-flight tasks at workers
	tasks  chan func()
	wg     sync.WaitGroup
	failed atomic.Pointer[poolPanic]
	waited bool
}

// Executor runs functions on a caller-provided worker pool. A batch
// executor (internal/fleet) injects one shared Executor into many
// concurrent analyses via WithTaskExecutor so their tasks compete for a
// single core budget instead of each analysis spawning its own
// goroutines. Go must run fn exactly once, asynchronously, and must
// never drop it. The closures the pipeline submits never block on the
// Executor themselves, so a bounded pool cannot deadlock on them.
type Executor interface {
	Go(fn func())
}

// poolPanic boxes the first task panic for re-raising on the caller.
type poolPanic struct{ val any }

// newStreamPool starts workers goroutines (none when workers <= 1:
// submit then runs tasks inline, the sequential reference path).
func newStreamPool(ctx context.Context, workers int) *streamPool {
	return newStreamPoolExec(ctx, workers, nil)
}

// newStreamPoolExec is newStreamPool with an optional external
// executor. With exec non-nil the pool owns no goroutines: submit hands
// tasks to exec and a semaphore caps in-flight tasks at workers, so the
// O(window) backpressure bound is identical to the own-goroutine mode —
// a saturated pool still blocks the sweep. The ready-prefix merge
// contract is unchanged (done channels close per task, merges happen on
// the coordinator), so results are bit-identical across modes.
func newStreamPoolExec(ctx context.Context, workers int, exec Executor) *streamPool {
	p := &streamPool{ctx: ctx}
	if workers <= 1 {
		p.seq = true
		return p
	}
	if exec != nil {
		p.exec = exec
		p.sem = make(chan struct{}, workers)
		return p
	}
	p.tasks = make(chan func(), workers)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// submit schedules fn and returns a channel closed when it has run (or
// been skipped after cancellation/panic — the channel always closes, so
// ready-prefix merges never wedge). Blocks when the pool is saturated.
func (p *streamPool) submit(fn func()) <-chan struct{} {
	done := make(chan struct{})
	wrapped := func() {
		defer close(done)
		defer func() {
			if v := recover(); v != nil {
				p.failed.CompareAndSwap(nil, &poolPanic{val: v})
			}
		}()
		if p.ctx.Err() == nil && p.failed.Load() == nil {
			fn()
		}
	}
	switch {
	case p.seq:
		wrapped()
	case p.exec != nil:
		p.sem <- struct{}{} // backpressure: blocks at workers in flight
		p.wg.Add(1)
		p.exec.Go(func() {
			defer p.wg.Done()
			defer func() { <-p.sem }()
			wrapped()
		})
	default:
		p.tasks <- wrapped
	}
	return done
}

// wait drains the pool, re-raises the first task panic, and reports
// ctx.Err(). Idempotent, so error paths can call it for cleanup.
func (p *streamPool) wait() error {
	if !p.waited {
		p.waited = true
		switch {
		case p.seq:
		case p.exec != nil:
			p.wg.Wait()
		default:
			close(p.tasks)
			p.wg.Wait()
		}
	}
	if pb := p.failed.Load(); pb != nil {
		panic(pb.val)
	}
	return p.ctx.Err()
}
