package core

import (
	"sync"
	"testing"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

// countingProbe tallies the events of the one simulator it watches.
type countingProbe struct {
	ops, finishes int64
}

func (p *countingProbe) OnOp(OpEvent)               { p.ops++ }
func (p *countingProbe) ObserveAccess(disk.Access)  {}
func (p *countingProbe) OnCheckpoint(time.Duration) {}
func (p *countingProbe) OnFinish()                  { p.finishes++ }

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
		if got := p.ops; got != ops {
			t.Errorf("probe %d saw %d ops, want exactly its own simulator's %d", i, got, ops)
		}
		if got := p.finishes; got != 1 {
			t.Errorf("probe %d saw %d finishes, want 1", i, got)
		}
	}
}
