package volume_test

import (
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/geom"
	"smrseek/internal/volume"
)

// TestActorRoundTripAllocs pins what synchronous round trips through the
// volume actor allocate: TryDo's queue hand-off, the actor's drain and
// simulator step, and the result receive. Requests and results travel
// by value over channels, so a warm round trip allocates nothing; the
// bound allows at most one extent-map leaf split per batch of 64,
// never one allocation per op. The journaled variant
// adds the journal append and the batch's commit: records are encoded
// into the log's own buffer, so it keeps the same bound.
func TestActorRoundTripAllocs(t *testing.T) {
	t.Run("plain", func(t *testing.T) { pinRoundTripAllocs(t, "") })
	t.Run("journaled", func(t *testing.T) { pinRoundTripAllocs(t, t.TempDir()) })
}

func pinRoundTripAllocs(t *testing.T, journalDir string) {
	v, err := volume.Open(volume.Config{
		Name:       "pin",
		Sim:        core.Config{LogStructured: true, FrontierStart: 1 << 22},
		JournalDir: journalDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	done := make(chan volume.Result, 1)
	const batch = 64
	var i int64
	run := func() {
		for n := 0; n < batch; n++ {
			req := volume.Request{Kind: volume.OpWrite, Extent: geom.Ext(geom.Sector(i*8%(1<<20)), 8)}
			i++
			if err := v.TryDo(req, done); err != nil {
				t.Fatal(err)
			}
			if r := <-done; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	const bound = 1
	t.Logf("%.0f allocs per %d actor round trips (bound %d)", allocs, batch, bound)
	if allocs > bound {
		t.Errorf("%d actor round trips allocated %.0f times, want <= %d", batch, allocs, bound)
	}
}
