// Package leakcheck is a test helper: it fails a test that leaves
// goroutines running after its own teardown. The dist tests of the
// engine and of the matching algorithms register it before they start a
// cluster, so a worker session, reader, monitor or accept loop that
// outlives Close is a test failure, not a slow leak.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Check records the goroutine count now and, at the test's cleanup,
// waits up to 5s for it to fall back to that count (plus two, for the
// runtime's own stragglers); past that it fails the test with every
// goroutine's stack. Cleanups run last-registered first, so call Check
// before registering the teardown it is meant to check. A test that
// already failed is not checked: it may strand goroutines mid-teardown.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at entry, %d after teardown\n%s", before, after, buf[:n])
	})
}
