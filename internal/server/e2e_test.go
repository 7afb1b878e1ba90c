package server

// End-to-end determinism: an in-process smrd stack (volumes + TCP server
// + client library) fed the same trace over the wire by N concurrent
// clients must produce per-volume statistics bit-identical to direct
// single-threaded simulator runs. This is the acceptance contract for
// the whole service layer: the network and the actor queue add zero
// behavioral noise.

import (
	"reflect"
	"sync"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
	"smrseek/internal/workload"
)

func TestE2EConcurrentDeterminism(t *testing.T) {
	p, err := workload.ByName("w91")
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Generate(0.02)
	frontier := core.FrontierFor(recs)

	// Four volumes with distinct optimization stacks: plain LS, defrag,
	// cache, and defrag+cache. Each gets its own client goroutine.
	d := core.DefaultDefragConfig()
	cc := core.DefaultCacheConfig()
	simCfgs := map[string]core.Config{
		"plain":  {LogStructured: true, FrontierStart: frontier},
		"defrag": {LogStructured: true, FrontierStart: frontier, Defrag: &d},
		"cache":  {LogStructured: true, FrontierStart: frontier, Cache: &cc},
		"both":   {LogStructured: true, FrontierStart: frontier, Defrag: &d, Cache: &cc},
	}

	// Reference: direct single-threaded runs, no service layer at all.
	want := make(map[string]core.Stats, len(simCfgs))
	for name, cfg := range simCfgs {
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(trace.NewSliceReader(recs))
		if err != nil {
			t.Fatal(err)
		}
		st.Config = core.Config{}
		want[name] = st
	}

	var volCfgs []volume.Config
	for name, cfg := range simCfgs {
		volCfgs = append(volCfgs, volume.Config{Name: name, Sim: cfg})
	}
	_, _, addr := newTestServer(t, Options{}, volCfgs...)

	// One client per volume, all replaying concurrently over TCP.
	var wg sync.WaitGroup
	got := make(map[string]core.Stats, len(simCfgs))
	var mu sync.Mutex
	for name := range simCfgs {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			ac, err := DialAsync(addr, 1)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			defer ac.Close()
			n, err := replay(ac, name, recs)
			if err != nil {
				t.Errorf("%s: replay: %v", name, err)
				return
			}
			if n != int64(len(recs)) {
				t.Errorf("%s: replayed %d of %d records", name, n, len(recs))
				return
			}
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			defer c.Close()
			st, err := c.Stat(name)
			if err != nil {
				t.Errorf("%s: stat: %v", name, err)
				return
			}
			mu.Lock()
			got[name] = st
			mu.Unlock()
		}(name)
	}
	wg.Wait()

	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: no stats collected", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: wire stats diverged from direct run:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
