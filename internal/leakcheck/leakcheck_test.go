package leakcheck

import (
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// TestCheckTripsOnLeakedGoroutine: a goroutine started after the snapshot
// and still blocked is reported with its stack; once it exits, the same
// snapshot checks clean.
func TestCheckTripsOnLeakedGoroutine(t *testing.T) {
	before := Take()
	release := make(chan struct{})
	go func() { <-release }()
	err := before.Check(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "TestCheckTripsOnLeakedGoroutine") {
		t.Fatalf("Check = %v, want the leaked goroutine's stack", err)
	}
	close(release)
	if err := before.Check(5 * time.Second); err != nil {
		t.Fatalf("after the goroutine exited: %v", err)
	}
}

// TestSignalLoopIsNotALeak: os/signal's delivery loop outlives every
// signal.Notify caller (under -fuzz the engine starts it), so it is never
// reported.
func TestSignalLoopIsNotALeak(t *testing.T) {
	before := Take()
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR2)
	signal.Stop(c)
	if err := before.Check(50 * time.Millisecond); err != nil {
		t.Fatalf("os/signal's loop reported as a leak: %v", err)
	}
}
