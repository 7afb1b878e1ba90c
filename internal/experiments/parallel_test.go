package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachIndexedRunsAll(t *testing.T) {
	var count int64
	seen := make([]int64, 100)
	err := forEachIndexed(context.Background(), 100, func(_ context.Context, i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d of 100", count)
	}
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d ran %d times", i, v)
		}
	}
}

func TestForEachIndexedPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := forEachIndexed(context.Background(), 10, func(_ context.Context, i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachIndexedZeroAndOne(t *testing.T) {
	if err := forEachIndexed(context.Background(), 0, func(context.Context, int) error { t.Fatal("should not run"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := forEachIndexed(context.Background(), 1, func(context.Context, int) error { ran = true; return nil }); err != nil || !ran {
		t.Fatal("single-item loop broken")
	}
}

// TestParallelDeterminism: the parallel Fig11 sweep must produce
// identical rows across runs.
func TestParallelDeterminism(t *testing.T) {
	a, err := Fig11Data(context.Background(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig11Data(context.Background(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestForEachIndexedStopsDispatchAfterError: once an invocation fails,
// queued indices must be dropped, not run — the executed count stays far
// below n even though the call returns promptly.
func TestForEachIndexedStopsDispatchAfterError(t *testing.T) {
	sentinel := errors.New("boom")
	const n = 10000
	var ran int64
	err := forEachIndexed(context.Background(), n, func(context.Context, int) error {
		atomic.AddInt64(&ran, 1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Every worker may have had one item in flight when the first error
	// landed, but the dispatcher must not have drained the whole range.
	if got := atomic.LoadInt64(&ran); got >= n {
		t.Fatalf("all %d items ran despite the first failing", got)
	}
}

func TestForEachIndexedCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := forEachIndexed(ctx, 100, func(ctx context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got != 0 {
		t.Fatalf("%d invocations ran under a pre-cancelled context, want 0", got)
	}
}

func TestForEachIndexedCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10000
	var ran int64
	err := forEachIndexed(ctx, n, func(ctx context.Context, i int) error {
		if atomic.AddInt64(&ran, 1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got >= n {
		t.Fatalf("all %d items ran despite cancellation", got)
	}
}

func TestForEachIndexedErrorWinsOverCancel(t *testing.T) {
	sentinel := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := forEachIndexed(ctx, 100, func(ctx context.Context, i int) error {
		if i == 0 {
			cancel()
			return sentinel
		}
		return nil
	})
	// The invocation error was first; it must not be masked by the
	// cancellation it raced with.
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel to win over ctx.Err()", err)
	}
}

func TestFig11DataCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig11Data(ctx, 0.05); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig11Data under cancelled ctx = %v, want context.Canceled", err)
	}
}
