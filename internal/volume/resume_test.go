package volume_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/stl"
	"smrseek/internal/volume"
)

const resumeFrontier = geom.Sector(1 << 16)

// crashedDir leaves a journal-only directory as a killed volume would:
// n acknowledged writes in sealed segments of 8, then a torn record.
func crashedDir(t *testing.T, n int64) string {
	t.Helper()
	dir := t.TempDir()
	lg, err := journal.Open(dir, resumeFrontier)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetSegmentSize(8); err != nil {
		t.Fatal(err)
	}
	lg.CrashAfter(n+1, 7)
	for i := int64(0); i <= n; i++ {
		err := lg.Append(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(i*16%512, 8), Pba: resumeFrontier + i*8})
		if i < n && err != nil {
			t.Fatal(err)
		}
		if i == n && !errors.Is(err, journal.ErrCrashed) {
			t.Fatalf("append %d: %v, want ErrCrashed", i+1, err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openResumed(dir string) (*volume.Volume, error) {
	return volume.Open(volume.Config{
		Name:       "a",
		Sim:        core.Config{LogStructured: true, FrontierStart: resumeFrontier},
		JournalDir: dir,
	})
}

// TestFailedResumeKeepsState: a restart that fails before its
// checkpoint is durable loses nothing. checkpoint.tmp is made a
// non-empty directory, so the resume's checkpoint cannot be staged; the
// open fails and the directory still recovers to the state it held.
func TestFailedResumeKeepsState(t *testing.T) {
	dir := crashedDir(t, 50)
	want, _, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoint.tmp", "x"), 0o777); err != nil {
		t.Fatal(err)
	}
	if v, err := openResumed(dir); err == nil {
		v.Close()
		t.Fatal("resume staged a checkpoint over a non-empty directory")
	}
	got, st, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatalf("state lost by the failed restart: %v", err)
	}
	if d := got.Map().Diff(want.Map()); d != "" || got.Frontier() != want.Frontier() || st.Replayed != 50 {
		t.Errorf("after the failed restart: frontier %d (want %d), %d replayed (want 50), map diff:\n%s",
			got.Frontier(), want.Frontier(), st.Replayed, d)
	}
}

// TestResumeAuditsClean: after a restart the directory holds the
// recovered state as a checkpoint and a reborn journal paired with it,
// so the offline audit passes and recovery finds the same state again.
func TestResumeAuditsClean(t *testing.T) {
	dir := crashedDir(t, 50)
	want, _, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := openResumed(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Recovery == nil || v.Recovery.Replayed != 50 || !v.Recovery.TornTail {
		t.Fatalf("recovery stats %+v, want 50 replayed and a torn tail", v.Recovery)
	}
	a, err := journal.VerifyDir(dir)
	if err != nil {
		t.Fatalf("resumed directory does not audit: %v", err)
	}
	if !a.HasCheckpoint || a.Generation != a.CheckpointGeneration+1 || a.Stale || a.TailTorn ||
		a.SealedRecords+a.TailRecords != 0 || a.Mappings != want.Map().Len() {
		t.Errorf("audit %+v, want a checkpoint of %d mappings paired with an empty reborn journal", a, want.Map().Len())
	}
	got, st, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Map().Diff(want.Map()); d != "" || got.Frontier() != want.Frontier() || !st.FromCheckpoint || st.Replayed != 0 {
		t.Errorf("re-recovery: frontier %d (want %d), stats %+v, map diff:\n%s", got.Frontier(), want.Frontier(), st, d)
	}
}
