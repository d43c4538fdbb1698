package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"meshlab/internal/leakcheck"
	"meshlab/internal/wire"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestBackoffCapAndDeterminism(t *testing.T) {
	const base = 5 * time.Millisecond
	cap := base << 6
	for attempt := 0; attempt < 80; attempt++ {
		d := backoff(base, attempt, shardRng(3))
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		if d > cap+cap/2 {
			t.Fatalf("attempt %d: backoff %v exceeds cap+jitter %v", attempt, d, cap+cap/2)
		}
	}
	// Same shard index → same jitter stream: a scenario replays
	// identically at any concurrency.
	a, b := shardRng(7), shardRng(7)
	for i := 0; i < 10; i++ {
		if x, y := backoff(base, i, a), backoff(base, i, b); x != y {
			t.Fatalf("attempt %d: %v != %v from identical rngs", i, x, y)
		}
	}
}

// TestExitCodeMapping pins the full exit-code contract documented on
// ExitCode (0/1/3/4/130 here; 2 is usage and never reaches it).
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"other", errors.New("anything else"), 1},
		{"checkpoint-write", fmt.Errorf("shard 1: %w", ErrCheckpoint), 1},
		{"corrupt", fmt.Errorf("shard 2: %w", ErrCorruptShard), 3},
		{"exhausted", fmt.Errorf("plan: %w", ErrExhausted), 4},
		// Raw wire corruption (the -sec4 path) classifies without shard
		// wrapping.
		{"wire-corrupt", fmt.Errorf("walk: %w", wire.ErrCorrupt), 3},
		{"canceled", context.Canceled, 130},
		{"deadline", fmt.Errorf("shard: %w", context.DeadlineExceeded), 130},
		// Cancellation wins even when a shard wrapper chained another
		// classified sentinel around it mid-flight.
		{"canceled-inside-exhausted", fmt.Errorf("%w: shard 0: %w", ErrExhausted, context.Canceled), 130},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Fatalf("%s: ExitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

func TestSleepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("clean sleep errored: %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{OK: "ok", Quarantined: "quarantined", Exhausted: "exhausted"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
