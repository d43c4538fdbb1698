// slots.go is a context-aware counting semaphore. meshd's warms each
// take one slot of a one-slot pool, so they run one at a time however
// many datasets are registered at once.

package conc

import (
	"context"
	"errors"
)

// ErrAborted is Acquire's error when its abort channel closes before a
// slot frees up.
var ErrAborted = errors.New("conc: slot wait aborted")

// Slots is a pool of cap(s) worker slots; each holder takes one. The
// zero value has no slots; construct with NewSlots.
type Slots chan struct{}

// NewSlots returns a pool of n slots (n < 1: one).
func NewSlots(n int) Slots { return make(Slots, max(1, n)) }

// Acquire blocks until a slot is free and takes it. It gives up with
// ctx's error when ctx ends first, or with ErrAborted when abort (nil:
// never) closes first; a wait that gives up holds no slot. Pair a nil
// return with Release.
func (s Slots) Acquire(ctx context.Context, abort <-chan struct{}) error {
	select {
	case s <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-abort:
		return ErrAborted
	}
}

// Release returns a slot taken by Acquire.
func (s Slots) Release() {
	select {
	case <-s:
	default:
		panic("conc: Release without a held slot")
	}
}

// InFlight returns how many slots are held.
func (s Slots) InFlight() int { return len(s) }
