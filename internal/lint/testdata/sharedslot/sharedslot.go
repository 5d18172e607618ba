// Testdata for the sharedslot analyzer: writes inside
// goroutine-reachable code must land in disjoint, task-derived slots.
// The pool below mirrors internal/core/parallel.go's runTasks so the
// task-closure tracking (closures appended to a slice later handed to
// the pool) is exercised, not just direct go statements.
package sharedslot

import (
	"sync"
	"sync/atomic"
)

type task struct {
	name string
	fn   func()
}

// runTasks mirrors the analysis pipeline's worker pool: workers claim
// task indices atomically and run the closures on their own goroutines.
func runTasks(workers int, tasks []task) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i].fn()
			}
		}()
	}
	wg.Wait()
}

// slotPerTaskOK is rule 2 done right: disjoint pre-sized slots indexed
// by the task's own per-iteration index.
func slotPerTaskOK(items []int) []int {
	slots := make([]int, len(items))
	var tasks []task
	for j, it := range items {
		j, it := j, it
		tasks = append(tasks, task{"slot", func() {
			slots[j] = it * 2
		}})
	}
	runTasks(4, tasks)
	return slots
}

// sharedScalarNotOK writes one captured scalar from every task.
func sharedScalarNotOK(items []int) int {
	total := 0
	var tasks []task
	for _, it := range items {
		it := it
		tasks = append(tasks, task{"sum", func() {
			total = total + it // want "captured total is written by every instance of this task closure"
		}})
	}
	runTasks(4, tasks)
	return total
}

// aliasedIndexNotOK wears slot syntax but the index is captured from
// outside the loop, so every task writes the same element.
func aliasedIndexNotOK(items []int) []int {
	slots := make([]int, 4)
	k := 0
	var tasks []task
	for range items {
		tasks = append(tasks, task{"alias", func() {
			slots[k] = 1 // want "aliased slot index: every instance of this task closure writes slots\[k\]"
		}})
	}
	runTasks(4, tasks)
	return slots
}

// constIndexNotOK: a constant index is the same aliasing bug.
func constIndexNotOK(items []int) []int {
	slots := make([]int, 4)
	var tasks []task
	for range items {
		tasks = append(tasks, task{"const", func() {
			slots[0] = 1 // want "aliased slot index: every instance of this task closure writes slots\[0\]"
		}})
	}
	runTasks(4, tasks)
	return slots
}

// appendNotOK races the shared slice header and scheduler-orders the
// elements.
func appendNotOK(items []int) []int {
	var out []int
	var tasks []task
	for _, it := range items {
		it := it
		tasks = append(tasks, task{"append", func() {
			out = append(out, it) // want "append to captured out inside a task closure"
		}})
	}
	runTasks(4, tasks)
	return out
}

// mapWriteNotOK: a captured map is never a slot.
func mapWriteNotOK(items []int) map[int]int {
	m := make(map[int]int)
	var tasks []task
	for _, it := range items {
		it := it
		tasks = append(tasks, task{"map", func() {
			m[it] = it // want "write to captured map m inside a task closure"
		}})
	}
	runTasks(4, tasks)
	return m
}

// goStmtSharedNotOK: the same rule applies to plain go statements in a
// loop, a channel-worker launch shape.
func goStmtSharedNotOK(n int) int {
	var wg sync.WaitGroup
	res := 0
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res = i // want "captured res is written by every instance of this goroutine"
		}()
	}
	wg.Wait()
	return res
}

// pointerSlotOK: a task-derived alias into the slot array is the
// documented pattern (s := &fig34Slots[k] in core/report.go).
func pointerSlotOK(n int) []int {
	slots := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &slots[i]
			*s = i * 2
		}()
	}
	wg.Wait()
	return slots
}

// aliasPointerNotOK launders the shared element through a pointer; the
// derivation is flagged, the writes through it look local.
func aliasPointerNotOK(n int) []int {
	slots := make([]int, 8)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &slots[0] // want "aliased pointer into captured slots"
			*s = i
		}()
	}
	wg.Wait()
	return slots
}

type report struct {
	a, b int
}

// fieldSlotsOK: single-instance tasks writing distinct fields of one
// captured struct are disjoint slots (the report-assembly shape).
func fieldSlotsOK(x, y int) report {
	rep := &report{}
	tasks := []task{
		{"a", func() { rep.a = x }},
		{"b", func() { rep.b = y }},
	}
	runTasks(2, tasks)
	return *rep
}

// fieldCollisionNotOK: two contexts, same field — last writer wins on
// scheduler order.
func fieldCollisionNotOK(x, y int) report {
	rep := &report{}
	tasks := []task{
		{"a", func() { rep.a = x }}, // want "captured rep.a is written by more than one goroutine context"
		{"b", func() { rep.a = y }}, // want "captured rep.a is written by more than one goroutine context"
	}
	runTasks(2, tasks)
	return *rep
}

// guardedElsewhereOK: a mutex-guarded write is mergeorder's finding,
// not a slot finding — sharedslot must stay quiet here.
func guardedElsewhereOK(items []int) int {
	var mu sync.Mutex
	total := 0
	var tasks []task
	for _, it := range items {
		it := it
		tasks = append(tasks, task{"locked", func() {
			mu.Lock()
			total = total + it
			mu.Unlock()
		}})
	}
	runTasks(4, tasks)
	return total
}

// localStateOK: everything declared inside the context is private.
func localStateOK(items []int) []int {
	slots := make([]int, len(items))
	var tasks []task
	for j, it := range items {
		j, it := j, it
		tasks = append(tasks, task{"local", func() {
			acc := 0
			for k := 0; k < it; k++ {
				acc = acc + k
			}
			slots[j] = acc
		}})
	}
	runTasks(4, tasks)
	return slots
}
