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
// goroutine — so Analyze output is bit-identical at any parallelism.

// task is one independent unit of analysis work. fn must touch only the
// task's own result slot plus immutable shared state (the record view,
// topology, link stats, episode index).
type task struct {
	name string
	fn   func()
}

// runTasks executes tasks on up to workers goroutines and waits for all
// of them. Tasks are claimed by atomic counter, so completion order is
// nondeterministic — which is fine, because merging happens afterwards
// on the caller's goroutine (rule 3 above). A task panic is re-raised
// on the caller once the group drains. Cancellation stops workers from
// claiming further tasks and reports ctx.Err().
func runTasks(ctx context.Context, workers int, tasks []task) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				return err
			}
			t.fn()
		}
		return nil
	}
	var next atomic.Int64
	var panicked atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, p)
				}
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i].fn()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}

// shardRanges splits n items into [lo, hi) ranges of roughly target
// items each, capped at maxShards ranges. The shard count depends only
// on n and target (rule 1), so per-shard partial results and their
// fixed-order merge are reproducible at any worker count.
func shardRanges(n, target, maxShards int) [][2]int {
	if n <= 0 {
		return nil
	}
	if target <= 0 {
		target = 1
	}
	k := (n + target - 1) / target
	if k < 1 {
		k = 1
	}
	if k > maxShards {
		k = maxShards
	}
	out := make([][2]int, k)
	for i := 0; i < k; i++ {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// recordShardTarget sizes record shards (Fig 7 join, attribution,
// Fig 9 CDFs): big enough that per-shard overhead is noise, small
// enough that a paper-scale run (~2M records) fans out well. The
// streaming pipeline uses the same constant as its chunk size, so at
// trace scale a chunk task costs the same as a shard task did.
const recordShardTarget = 1 << 17

// maxRecordShards bounds the fan-out (and the slot arrays).
const maxRecordShards = 32

// streamPool runs figure-window and record-chunk tasks for the
// streaming pipeline. Unlike runTasks it accepts work incrementally —
// tasks are submitted as the sweep closes windows — but the same
// three-rule contract applies: every submitted task writes one
// pre-sized slot, and the coordinator merges completed slots in
// submission order via the per-task done channels (the "ready prefix"),
// never in completion order. The task channel's small buffer is the
// pipeline's backpressure: a slow pool blocks the sweep, bounding
// in-flight window copies and unmerged slots by O(workers), which is
// what keeps streaming analysis memory O(window).
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
