package conc

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"meshlab/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestBudgetDefaultsToGOMAXPROCS(t *testing.T) {
	defer SetBudget(0)
	SetBudget(0)
	if got := Budget(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Budget = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetBudget(3)
	if got := Budget(); got != 3 {
		t.Fatalf("Budget = %d after SetBudget(3)", got)
	}
	SetBudget(-5)
	if got := Budget(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetBudget should reset to default, got %d", got)
	}
}

func TestWorkersOverride(t *testing.T) {
	defer SetBudget(0)
	SetBudget(2)
	if got := Workers(0); got != 2 {
		t.Fatalf("Workers(0) = %d, want budget 2", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want the explicit override", got)
	}
}

// TestForEachNCoversAllIndices: every index runs exactly once at any pool
// size, and the serial and parallel schedules produce the same set.
func TestForEachNCoversAllIndices(t *testing.T) {
	const n = 137
	for _, workers := range []int{1, 2, 8} {
		hits := make([]atomic.Int32, n)
		if err := ForEachN(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// TestForEachNLowestIndexError: the reported failure is the lowest failed
// index regardless of scheduling, so error surfaces are deterministic.
func TestForEachNLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachN(50, workers, func(i int) error {
			if i == 7 || i == 23 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 7" {
			t.Fatalf("workers=%d: err = %v, want fail 7", workers, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, func(int) error { panic("must not run") }); err != nil {
		t.Fatal(err)
	}
}
