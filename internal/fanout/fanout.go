// Package fanout bounds the opportunistic parallelism of model training.
//
// Training code splits its work into independent tasks whose results land in
// fixed slots, so the outcome never depends on which goroutine ran a task or
// when. M5P induction forks two kinds: the growth of a sibling subtree (its
// nodes and row ranges), and helpers that drain the queue of node model fits
// beside the caller (each fit writes its own node's model). Fork runs a task
// on a new goroutine only while fewer than GOMAXPROCS-1 forked tasks are
// running process-wide, and runs it inline otherwise: with GOMAXPROCS 1
// training stays single-goroutine, and nested fan-out (subtrees inside
// sibling subtrees, or experiment cells training side by side) never
// oversubscribes the machine.
package fanout

import (
	"runtime"
	"sync/atomic"
)

// running counts forked tasks that have not finished yet.
var running atomic.Int32

// Fork runs f, on a new goroutine when a slot is free and inline otherwise,
// and returns a function that waits for f to finish. The caller must call it
// before reading anything f writes.
func Fork(f func()) (join func()) {
	if running.Add(1) > int32(runtime.GOMAXPROCS(0)-1) {
		running.Add(-1)
		f()
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer running.Add(-1)
		f()
	}()
	return func() { <-done }
}
