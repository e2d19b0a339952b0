// Package testutil holds shared test-only helpers. It imports only the
// standard library, obs, column and byteslice.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// CheckNoLeaks snapshots the running goroutines and returns a function
// to be deferred (or passed to t.Cleanup) that fails the test if
// goroutines created during the test are still alive at its end.
//
// Usage:
//
//	defer testutil.CheckNoLeaks(t)()
//
// Detection is by stack identity, not by count: goroutines whose stacks
// already existed at the snapshot are ignored, as are known-benign
// runtime/testing goroutines. Because a cancelled worker may need a few
// scheduler ticks to observe ctx.Done() and exit, the check retries with
// backoff for up to one second before declaring a leak.
func CheckNoLeaks(t *testing.T) func() {
	t.Helper()
	before := goroutineStacks()
	return func() {
		t.Helper()
		deadline := time.Now().Add(1 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leaked %d goroutine(s):\n%s", len(leaked), strings.Join(leaked, "\n---\n"))
	}
}

// leakedSince diffs the current goroutine stacks against a snapshot,
// filtering benign runtime/testing goroutines.
func leakedSince(before map[string]int) []string {
	var leaked []string
	for stack, n := range goroutineStacks() {
		if benign(stack) {
			continue
		}
		if extra := n - before[stack]; extra > 0 {
			leaked = append(leaked, fmt.Sprintf("%d x %s", extra, stack))
		}
	}
	sort.Strings(leaked)
	return leaked
}

// goroutineStacks returns a multiset of normalized goroutine stacks.
func goroutineStacks() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		stacks[normalize(g)]++
	}
	return stacks
}

// normalize strips goroutine ids, argument values, and pointer-bearing
// source offsets so identical code paths compare equal across runs.
func normalize(stack string) string {
	lines := strings.Split(stack, "\n")
	var out []string
	for i, line := range lines {
		if i == 0 {
			// Drop "goroutine 123 [chan receive]:" entirely — the id is
			// unique per goroutine and the state flaps between samples.
			continue
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "/") || strings.Contains(line, ".go:") {
			continue // file:line rows carry offsets; function rows suffice
		}
		// Drop the argument list: "pkg.fn(0x1234, ...)" -> "pkg.fn"
		if idx := strings.IndexByte(line, '('); idx >= 0 {
			line = line[:idx]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// benign reports stacks owned by the runtime or the testing harness.
func benign(stack string) bool {
	for _, marker := range []string{
		"testing.RunTests",
		"testing.(*T).Run",
		"testing.runTests",
		"testing.Main",
		"runtime.goexit",
	} {
		if strings.HasPrefix(stack, marker) {
			return true
		}
	}
	return strings.Contains(stack, "testing.tRunner") ||
		strings.Contains(stack, "runtime.gc") ||
		strings.Contains(stack, "runtime.MHeap") ||
		strings.Contains(stack, "runtime/pprof") ||
		strings.Contains(stack, "signal.signal_recv") ||
		strings.Contains(stack, "runtime.ensureSigM")
}
