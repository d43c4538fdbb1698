package conc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolNeverExceedsCapacity hammers a slot pool from many acquirers
// and asserts that no more of them ever hold a slot at once than the
// pool has, and that the pool was used at all.
func TestPoolNeverExceedsCapacity(t *testing.T) {
	const capacity = 5
	s := NewSlots(capacity)
	ctx := context.Background()
	var wg sync.WaitGroup
	var holders, high atomic.Int32
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := s.Acquire(ctx, nil); err != nil {
					t.Error(err)
					return
				}
				n := holders.Add(1)
				for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
				}
				holders.Add(-1)
				s.Release()
			}
		}()
	}
	wg.Wait()
	if h := high.Load(); h > capacity || h == 0 {
		t.Fatalf("high-water mark %d holders, want 1..%d", h, capacity)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after every holder released, want 0", n)
	}
	if n := cap(NewSlots(0)); n != 1 {
		t.Fatalf("NewSlots(0) has %d slots, want 1", n)
	}
}

// TestPoolAcquireHonorsContext: a cancelled context, or a closed abort
// channel, unblocks a waiter with its error instead of leaking it.
func TestPoolAcquireHonorsContext(t *testing.T) {
	s := NewSlots(2)
	for i := 0; i < 2; i++ {
		if err := s.Acquire(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	abort := make(chan struct{})
	errc := make(chan error, 3)
	go func() { errc <- s.Acquire(ctx, nil) }()
	go func() { errc <- s.Acquire(ctx, abort) }()
	go func() { errc <- s.Acquire(context.Background(), abort) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(abort)
	var canceled, aborted int
	for i := 0; i < 3; i++ {
		select {
		case err := <-errc:
			switch err {
			case context.Canceled:
				canceled++
			case ErrAborted:
				aborted++
			default:
				t.Fatalf("blocked acquire returned %v, want context.Canceled or ErrAborted", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancelled acquire never returned")
		}
	}
	// The first waiter can only see its context; the third only the
	// abort channel; the second either.
	if canceled < 1 || aborted < 1 {
		t.Fatalf("%d canceled and %d aborted waits, want at least one of each", canceled, aborted)
	}
	if n := s.InFlight(); n != 2 {
		t.Fatalf("in-flight %d after abandoned waits, want the 2 held", n)
	}
	s.Release()
	s.Release()
}

// TestPoolTimeoutLeaksNoSlot: an acquisition that times out while
// queued must leave the pool exactly as it found it, and a full pool
// serves again once its holders let go.
func TestPoolTimeoutLeaksNoSlot(t *testing.T) {
	s := NewSlots(3)
	for i := 0; i < cap(s); i++ {
		if err := s.Acquire(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		err := s.Acquire(ctx, nil)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("saturated acquire %d returned %v, want DeadlineExceeded", i, err)
		}
	}
	if n := s.InFlight(); n != cap(s) {
		t.Fatalf("in-flight %d after timed-out waits, want %d (a slot leaked or was stolen)", n, cap(s))
	}
	for i := 0; i < cap(s); i++ {
		s.Release()
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after releasing everything, want 0", n)
	}
	// The pool still serves: a fresh acquire succeeds immediately.
	if err := s.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("pool unusable after timeouts: %v", err)
	}
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Release on an empty pool did not panic")
		}
	}()
	s.Release()
}
