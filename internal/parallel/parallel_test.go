package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
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
