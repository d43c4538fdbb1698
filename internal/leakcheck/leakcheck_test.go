package leakcheck

import (
	"strings"
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
