package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForkBoundsGoroutines forks a binary tree of tasks and checks that every
// leaf ran before the root's joins returned, that no more than GOMAXPROCS
// leaves (the caller plus at most GOMAXPROCS-1 forked goroutines) ever ran
// at once, and that no slot stays taken afterwards.
func TestForkBoundsGoroutines(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var active, peak, leaves atomic.Int32
		var split func(depth int)
		split = func(depth int) {
			if depth == 0 {
				now := active.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				time.Sleep(50 * time.Microsecond)
				active.Add(-1)
				leaves.Add(1)
				return
			}
			join := Fork(func() { split(depth - 1) })
			split(depth - 1)
			join()
		}
		split(6)
		runtime.GOMAXPROCS(prev)
		if got := leaves.Load(); got != 64 {
			t.Fatalf("procs %d: %d of 64 leaves ran before the joins returned", procs, got)
		}
		if got := peak.Load(); got > int32(procs) {
			t.Fatalf("procs %d: %d leaves ran at once", procs, got)
		}
		if got := running.Load(); got != 0 {
			t.Fatalf("procs %d: %d slots still taken after every join", procs, got)
		}
	}
}
