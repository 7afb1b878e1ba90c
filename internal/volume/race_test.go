package volume_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/geom"
	"smrseek/internal/volume"
)

// TestCloseSubmitRace hammers TryDo from many goroutines while Close
// runs concurrently. The contract under race: every submission gets
// exactly one outcome — a delivered Result, ErrClosed, or
// ErrOverloaded — and an accepted submission (TryDo returned nil) is
// always answered, even when Close lands between submit and execute.
func TestCloseSubmitRace(t *testing.T) {
	v, err := volume.Open(volume.Config{
		Name:       "race",
		Sim:        core.Config{LogStructured: true, FrontierStart: 1 << 20},
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		accepted  atomic.Int64 // TryDo returned nil
		delivered atomic.Int64 // results read off done channels
		rejected  atomic.Int64 // ErrClosed or ErrOverloaded
		wg        sync.WaitGroup
	)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				done := make(chan volume.Result, 1)
				ext := geom.Ext(geom.Sector((w*1000+i*8)%100000), 8)
				err := v.TryDo(volume.Request{Kind: volume.OpWrite, Extent: ext}, done)
				switch {
				case err == nil:
					accepted.Add(1)
					<-done // Close drains the queue: this must always arrive
					delivered.Add(1)
				case errors.Is(err, volume.ErrClosed):
					rejected.Add(1)
					return // closed stays closed; submission loop is over
				case errors.Is(err, volume.ErrOverloaded):
					rejected.Add(1)
				default:
					t.Errorf("TryDo: unexpected error %v", err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let the workers build up traffic
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	if accepted.Load() != delivered.Load() {
		t.Fatalf("%d accepted submissions but %d delivered results", accepted.Load(), delivered.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("race produced no accepted submissions; the test exercised nothing")
	}
	t.Logf("accepted %d, rejected %d", accepted.Load(), rejected.Load())
}

// TestCloseDoRace runs the blocking submission path (Do)
// against a concurrent Close: each call must return either a real
// result or ErrClosed — never hang, never panic on the closed queue.
func TestCloseDoRace(t *testing.T) {
	v, err := volume.Open(volume.Config{
		Name: "race-do",
		Sim:  core.Config{LogStructured: true, FrontierStart: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		completed atomic.Int64
		closed    atomic.Int64
		wg        sync.WaitGroup
	)
	ctx := context.Background()
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				ext := geom.Ext(geom.Sector((w*1000+i*8)%100000), 8)
				_, err := v.Do(ctx, volume.OpWrite, ext)
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, volume.ErrClosed):
					closed.Add(1)
					return
				default:
					t.Errorf("Do: unexpected error %v", err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no writes completed before Close; the race window never opened")
	}
	if closed.Load() != workers {
		t.Fatalf("%d workers saw ErrClosed, want all %d", closed.Load(), workers)
	}
}
