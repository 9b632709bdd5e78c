package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		got, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 20, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17
				return 0, fmt.Errorf("item %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: err = %v, want item 3", workers, err)
		}
	}
}

func TestMapRunsEveryItemDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(4, 30, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() != 30 {
		t.Fatalf("ran %d of 30 items", ran.Load())
	}
}

func TestAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ok, err := All(workers, 20, func(i int) (bool, error) { return true, nil })
		if err != nil || !ok {
			t.Fatalf("workers=%d: all-true gave %v, %v", workers, ok, err)
		}
		ok, err = All(workers, 20, func(i int) (bool, error) { return i != 11, nil })
		if err != nil || ok {
			t.Fatalf("workers=%d: one-false gave %v, %v", workers, ok, err)
		}
		_, err = All(workers, 20, func(i int) (bool, error) {
			if i == 5 {
				return false, errors.New("boom")
			}
			return true, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
	}
}

func TestAllSkipsAfterFalse(t *testing.T) {
	var ran atomic.Int64
	ok, err := All(1, 1000, func(i int) (bool, error) {
		ran.Add(1)
		return i < 3, nil
	})
	if err != nil || ok {
		t.Fatalf("got %v, %v", ok, err)
	}
	if ran.Load() != 4 {
		t.Fatalf("serial All ran %d items, want 4", ran.Load())
	}
}

// TestAllRunSetIsDeterministic: with w workers, item i runs exactly when
// items 0..i-w all returned true, however the calls interleave. Random
// delays shuffle the completion order; the set that ran must not move.
func TestAllRunSetIsDeterministic(t *testing.T) {
	const n, workers, fail = 40, 4, 11
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		ran := make([]atomic.Bool, n)
		ok, err := All(workers, n, func(i int) (bool, error) {
			ran[i].Store(true)
			time.Sleep(delays[i])
			return i != fail, nil
		})
		if err != nil || ok {
			t.Fatalf("trial %d: got %v, %v", trial, ok, err)
		}
		for i := range ran {
			if want := i < fail+workers; ran[i].Load() != want {
				t.Fatalf("trial %d: item %d ran = %v, want %v", trial, i, ran[i].Load(), want)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	if got := clamp(0, 5); got != DefaultWorkers() && got != 5 {
		t.Fatalf("clamp(0, 5) = %d", got)
	}
	if got := clamp(8, 3); got != 3 {
		t.Fatalf("clamp(8, 3) = %d", got)
	}
	if got := clamp(-1, 0); got != 1 {
		t.Fatalf("clamp(-1, 0) = %d", got)
	}
}
