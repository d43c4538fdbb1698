// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Main records the goroutines alive before the tests and, after them,
// gives every goroutine started since a grace period to exit; the stack
// of each survivor is printed and the binary fails.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long Main waits for the tests' goroutines to exit.
const grace = 5 * time.Second

// Snapshot is the set of goroutines running at one instant, keyed by
// their "goroutine N" stack header.
type Snapshot map[string]bool

// Take records the goroutines running now, other than the caller's.
func Take() Snapshot {
	s := Snapshot{}
	for _, g := range stacks() {
		s[header(g)] = true
	}
	return s
}

// Check waits up to grace for every goroutine missing from s to exit, and
// returns an error carrying the stacks of those still running.
func (s Snapshot) Check(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	for {
		var leaked []string
		for _, g := range stacks() {
			if !s[header(g)] && !persistent(g) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutine(s) still running %v after the tests:\n\n%s",
				len(leaked), grace, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Main runs the tests and exits non-zero if they fail or leak.
func Main(m *testing.M) {
	before := Take()
	code := m.Run()
	if code == 0 {
		if err := before.Check(grace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// stacks returns the stack of every goroutine except the caller's, which
// runtime.Stack always prints first.
func stacks() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(string(buf), "\n\n")[1:]
}

// persistent reports whether a goroutine belongs to the process rather
// than to a test: os/signal's delivery loop, which the first
// signal.Notify starts (the fuzzing engine calls it) and nothing ever
// stops.
func persistent(stack string) bool {
	return strings.Contains(stack, "\nos/signal.loop()")
}

// header returns a stack's "goroutine N" identity.
func header(stack string) string {
	h, _, _ := strings.Cut(stack, " [")
	return h
}
