package volume_test

import (
	"net"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/server"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
)

// BenchmarkVolumeActor measures the actor-loop overhead the service
// layer adds on top of the raw simulator: queue handoff, batch drain and
// result delivery. "sync" waits out each op's full round trip (the
// protocol server's shape — one outstanding request per connection);
// "pipelined" keeps a window of requests in flight so the actor's batch
// drain actually batches (the multi-connection aggregate shape).
func BenchmarkVolumeActor(b *testing.B) {
	cases := []struct {
		name   string
		window int
	}{
		{"sync", 1},
		{"pipelined", 256},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			v, err := volume.Open(volume.Config{
				Name:       "bench",
				Sim:        core.Config{LogStructured: true, FrontierStart: 1 << 22},
				QueueDepth: 512,
			})
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan volume.Result, bc.window)
			outstanding := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := volume.Request{
					Kind:   volume.OpWrite,
					Extent: geom.Ext(geom.Sector((int64(i)*8)%(1<<20)), 8),
				}
				for {
					if err := v.TryDo(req, done); err == nil {
						break
					}
					<-done // queue full: free a slot by draining a result
					outstanding--
				}
				if outstanding++; outstanding == bc.window {
					<-done
					outstanding--
				}
			}
			for outstanding > 0 {
				<-done
				outstanding--
			}
			b.StopTimer()
			if err := v.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkVolumeTCP measures the same write stream through the full
// network service — hello, framing, the per-connection reader/writer
// goroutines and the volume actor. "sync" is the one-outstanding-request
// synchronous client (the v1 shape over SMRD2); "pipelined" keeps the
// negotiated window full on the same single connection, so the batching
// on both sides of the wire — the server writer's response coalescing
// and the actor's batch drain — actually engages. The allocation
// budgets are pinned by TestActorRoundTripAllocs and the server's
// alloc tests; this benchmark is for local profiling.
func BenchmarkVolumeTCP(b *testing.B) {
	cases := []struct {
		name   string
		window int
	}{
		{"sync", 1},
		{"pipelined", 256},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			mgr, err := volume.OpenAll(volume.Config{
				Name:       "bench",
				Sim:        core.Config{LogStructured: true, FrontierStart: 1 << 22},
				QueueDepth: 512,
			})
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(mgr, ln, server.Options{Logf: b.Logf, MaxWindow: 256})
			defer func() {
				srv.Close()
				mgr.Close()
			}()
			ac, err := server.DialAsync(ln.Addr().String(), bc.window)
			if err != nil {
				b.Fatal(err)
			}
			defer ac.Close()
			if got := ac.Window(); got != bc.window {
				b.Fatalf("negotiated window %d, want %d", got, bc.window)
			}
			done := make(chan *server.Call, bc.window)
			outstanding := 0
			reap := func() {
				call := <-done
				outstanding--
				if _, err := call.Result(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := trace.Record{Kind: disk.Write, Extent: geom.Ext(geom.Sector((int64(i)*8)%(1<<20)), 8)}
				if _, err := ac.SubmitStep("bench", rec, done); err != nil {
					b.Fatal(err)
				}
				if outstanding++; outstanding == bc.window {
					reap()
				}
			}
			for outstanding > 0 {
				reap()
			}
			b.StopTimer()
		})
	}
}
