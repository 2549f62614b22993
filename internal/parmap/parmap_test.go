package parmap

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 128} {
		got, err := Map(items, workers, func(v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// Map must complete every item and join every error, not just the
// first: a sweep where points 3 and 7 fail must report both.
func TestMapJoinsAllErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	var ran atomic.Int64
	_, err := Map(items, 2, func(v int) (int, error) {
		ran.Add(1)
		if v%2 == 1 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if ran.Load() != int64(len(items)) {
		t.Errorf("ran %d of %d items; failures must not cancel the rest", ran.Load(), len(items))
	}
	if err == nil {
		t.Fatal("expected joined error")
	}
	for _, want := range []string{"item 1 failed", "item 3 failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q lost %q", err, want)
		}
	}
}

// An empty input runs nothing and returns an empty, error-free result.
func TestMapEmptyInput(t *testing.T) {
	got, err := Map(nil, 4, func(v int) (int, error) {
		t.Error("f called on empty input")
		return v, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("Map(nil) = %v, %v; want empty, nil", got, err)
	}
}
