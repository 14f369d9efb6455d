package core

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"
)

// machineWorkers counts the live pim engine worker goroutines.
func machineWorkers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, line := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n") {
		if strings.Contains(line, "internal/pim.(*engine[") && strings.Contains(line, ").worker(") {
			n++
		}
	}
	return n
}

// TestMapCollected: a closed Map and an abandoned, unclosed one are both
// garbage collected, and their machines' worker goroutines exit. Module
// states point back at their Map (scratch tasks hold it), so each machine
// sits in a reference cycle — the case a finalizer never runs for — and
// the workers must not keep the last round's modules alive either.
func TestMapCollected(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // P=8 then spawns 3 workers per machine
	defer runtime.GOMAXPROCS(old)
	runtime.GC()
	base := machineWorkers()

	build := func(closeIt bool) weak.Pointer[Map[uint64, int64]] {
		m := New[uint64, int64](Config{P: 8, Seed: 0xC011EC7}, Uint64Hash)
		keys := make([]uint64, 512)
		vals := make([]int64, len(keys))
		for i := range keys {
			keys[i] = uint64(i*7 + 1)
			vals[i] = int64(i)
		}
		m.Upsert(keys, vals)
		m.Get(keys)
		m.Successor(keys)
		m.Delete(keys[:100])
		if n := machineWorkers(); n < base+3 {
			t.Fatalf("%d machine workers with a live machine (%d before): the pool never started", n, base)
		}
		if closeIt {
			m.Close()
		}
		return weak.Make(m)
	}
	closed, abandoned := build(true), build(false)

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		gone := closed.Value() == nil && abandoned.Value() == nil
		if gone && machineWorkers() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after GC: closed collected=%v, abandoned collected=%v, %d machine workers (%d before)",
				closed.Value() == nil, abandoned.Value() == nil, machineWorkers(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
