package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

// countingProbe tallies events with atomics so one instance can serve as
// a global probe shared by concurrently-running simulators.
type countingProbe struct {
	ops, accesses, finishes atomic.Int64
}

func (p *countingProbe) OnOp(OpEvent)               { p.ops.Add(1) }
func (p *countingProbe) ObserveAccess(disk.Access)  { p.accesses.Add(1) }
func (p *countingProbe) OnCheckpoint(time.Duration) {}
func (p *countingProbe) OnFinish()                  { p.finishes.Add(1) }

// TestConcurrentSimulatorsPerProbeIsolation is the multi-tenant hazard
// test: many simulators constructed and run concurrently, each with its
// own per-simulator probe, must deliver each probe exactly its own
// simulator's events — no cross-talk, no races (run under -race in CI).
func TestConcurrentSimulatorsPerProbeIsolation(t *testing.T) {
	const (
		sims = 8
		ops  = 500
	)
	recs := make([]trace.Record, 0, ops)
	for i := 0; i < ops; i++ {
		kind := disk.Write
		if i%3 == 0 {
			kind = disk.Read
		}
		recs = append(recs, trace.Record{Kind: kind, Extent: geom.Ext(int64(i%97)*8, 8)})
	}

	var wg sync.WaitGroup
	probes := make([]*countingProbe, sims)
	for i := 0; i < sims; i++ {
		probes[i] = &countingProbe{}
		wg.Add(1)
		go func(p *countingProbe) {
			defer wg.Done()
			sim, err := NewSimulator(Config{LogStructured: true, FrontierStart: FrontierFor(recs)}, p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sim.Run(trace.NewSliceReader(recs)); err != nil {
				t.Error(err)
			}
		}(probes[i])
	}
	wg.Wait()
	for i, p := range probes {
		if got := p.ops.Load(); got != ops {
			t.Errorf("probe %d saw %d ops, want exactly its own simulator's %d", i, got, ops)
		}
		if got := p.finishes.Load(); got != 1 {
			t.Errorf("probe %d saw %d finishes, want 1", i, got)
		}
	}
}

// TestConcurrentSimulatorsGlobalProbeChurn exercises SetGlobalProbe
// racing against concurrent NewSimulator calls: the pointer swap must be
// atomic (no torn attachment) and per-simulator probes must be
// unaffected by the churn. Event counts through the churning global
// probe are inherently nondeterministic; only the per-simulator probes
// are asserted.
func TestConcurrentSimulatorsGlobalProbeChurn(t *testing.T) {
	const (
		sims = 6
		ops  = 300
	)
	recs := make([]trace.Record, 0, ops)
	for i := 0; i < ops; i++ {
		recs = append(recs, trace.Record{Kind: disk.Write, Extent: geom.Ext(int64(i%53)*4, 4)})
	}

	global := &countingProbe{}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				SetGlobalProbe(global)
			} else {
				SetGlobalProbe(nil)
			}
		}
	}()

	var wg sync.WaitGroup
	probes := make([]*countingProbe, sims)
	for i := 0; i < sims; i++ {
		probes[i] = &countingProbe{}
		wg.Add(1)
		go func(p *countingProbe) {
			defer wg.Done()
			sim, err := NewSimulator(Config{LogStructured: true, FrontierStart: FrontierFor(recs)}, p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sim.Run(trace.NewSliceReader(recs)); err != nil {
				t.Error(err)
			}
		}(probes[i])
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	SetGlobalProbe(nil)

	for i, p := range probes {
		if got := p.ops.Load(); got != ops {
			t.Errorf("probe %d saw %d ops, want %d", i, got, ops)
		}
	}
}
