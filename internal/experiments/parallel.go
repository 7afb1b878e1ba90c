package experiments

import (
	"context"
	"runtime"
	"sync"
)

// forEachIndexed runs fn(ctx, i) for i in [0, n) on up to GOMAXPROCS
// workers and returns the first error. Results are written by index on
// the caller's side, so output order — and therefore every rendered
// table — is deterministic regardless of scheduling. Dispatch stops as
// soon as any invocation errors or ctx ends, in-flight work is allowed
// to finish, and queued indices are dropped rather than run. The first
// invocation error wins; with none, a cancelled context returns
// ctx.Err().
func forEachIndexed(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		abort    = make(chan struct{})
		once     sync.Once
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		once.Do(func() { close(abort) })
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Drain without running once an error or cancellation
				// has been observed.
				select {
				case <-abort:
					continue
				case <-ctx.Done():
					continue
				default:
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case <-abort:
			break dispatch
		case <-ctx.Done():
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}
