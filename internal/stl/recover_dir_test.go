package stl

import (
	"errors"
	"math/rand"
	"os"
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// recoverDirThreeCalls is verified recovery as three separate calls —
// VerifyDir, then LoadDir, then the forward replay — each reading the
// directory on its own. RecoverDirWith must match it.
func recoverDirThreeCalls(dir string) (*LS, ReplayStats, error) {
	audit, err := journal.VerifyDir(dir)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	snap, d, err := journal.LoadDir(dir)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	l, st, err := replayForward(snap, d)
	st.Verified = true
	st.SealedSegments = len(audit.Segments)
	if fi, serr := os.Stat(journal.JournalPath(dir)); serr == nil {
		st.JournalBytes = fi.Size()
	}
	return l, st, err
}

// buildSealedDir journals n writes with small segments so the journal
// carries several sealed segments, then closes the log. Returns the
// live state for comparison.
func buildSealedDir(t *testing.T, dir string, n int) *LS {
	t.Helper()
	log, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	live := NewLS(0)
	for i := 0; i < n; i++ {
		journaledWrite(t, live, log, geom.Ext(int64(i)*8, 8))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return live
}

// checkpointedDir journals overlapping writes with segments of 2,
// checkpoints, and journals tail more writes; the live layer and the
// still-open log are returned. The seed picks the writes, so two seeds
// give two directories of the same shape and different checkpoints.
func checkpointedDir(t *testing.T, dir string, seed int64, tail int) (*LS, *journal.Log) {
	t.Helper()
	log, err := journal.Open(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	live := NewLS(1 << 12)
	rng := rand.New(rand.NewSource(seed))
	write := func() { journaledWrite(t, live, log, geom.Ext(rng.Int63n(512), rng.Int63n(32)+1)) }
	for i := 0; i < 12; i++ {
		write()
	}
	if err := log.Checkpoint(live.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		write()
	}
	return live, log
}

func closeLog(t *testing.T, log *journal.Log) {
	t.Helper()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// closedDir is checkpointedDir with the log closed.
func closedDir(t *testing.T, dir string, seed int64, tail int) {
	t.Helper()
	_, log := checkpointedDir(t, dir, seed, tail)
	closeLog(t, log)
}

// rewrite replaces one file of a journal directory; nil removes it.
func rewrite(t *testing.T, path string, b []byte) {
	t.Helper()
	var err error
	if b == nil {
		err = os.Remove(path)
	} else {
		err = os.WriteFile(path, b, 0o666)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverDirWithScanOnceDifferential runs verified recovery, which
// reads and scans each directory once, against the three-call sequence
// on every directory shape the audit and the load treat differently.
// The layer, the ReplayStats (Elapsed zeroed) and the error — a
// *CorruptError field for field — must be identical.
func TestRecoverDirWithScanOnceDifferential(t *testing.T) {
	type want int
	const (
		recovers want = iota
		torn
		corrupt
		fails
	)
	cases := map[string]struct {
		build func(dir string)
		want  want
	}{
		"clean": {func(dir string) { closedDir(t, dir, 1, 5) }, recovers},
		"journal only": {func(dir string) {
			buildSealedDir(t, dir, 9)
		}, recovers},
		"torn tail": {func(dir string) {
			live, log := checkpointedDir(t, dir, 1, 0)
			log.CrashAfter(log.Appends()+4, 13)
			for i := int64(0); journaledWrite(t, live, log, geom.Ext(i*8, 8)); i++ {
			}
			closeLog(t, log)
		}, torn},
		"flipped sealed byte": {func(dir string) {
			closedDir(t, dir, 1, 5)
			raw := readFile(t, journal.JournalPath(dir))
			raw[42] ^= 0x01 // inside the first record frame
			rewrite(t, journal.JournalPath(dir), raw)
		}, corrupt},
		"stale generation": {func(dir string) {
			live, log := checkpointedDir(t, dir, 1, 3)
			before := readFile(t, journal.JournalPath(dir))
			if err := log.Checkpoint(live.Snapshot()); err != nil {
				t.Fatal(err)
			}
			closeLog(t, log)
			rewrite(t, journal.JournalPath(dir), before) // crash before the truncation
		}, recovers},
		"torn header under a checkpoint": {func(dir string) {
			closedDir(t, dir, 1, 0)
			rewrite(t, journal.JournalPath(dir), readFile(t, journal.JournalPath(dir))[:30])
		}, torn},
		"checkpoint mismatch": {func(dir string) {
			closedDir(t, dir, 1, 5)
			other := t.TempDir()
			closedDir(t, other, 2, 5)
			rewrite(t, journal.CheckpointPath(dir), readFile(t, journal.CheckpointPath(other)))
		}, corrupt},
		"checkpoint only": {func(dir string) {
			closedDir(t, dir, 1, 5)
			rewrite(t, journal.JournalPath(dir), nil)
		}, recovers},
		"neither file": {func(string) {}, fails},
	}
	for name, c := range cases {
		dir := t.TempDir()
		c.build(dir)
		gotL, got, gerr := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true})
		wantL, exp, werr := recoverDirThreeCalls(dir)
		got.Elapsed, exp.Elapsed = 0, 0
		if !sameError(gerr, werr) {
			t.Fatalf("%s: err %v, three calls %v", name, gerr, werr)
		}
		if got != exp {
			t.Fatalf("%s: stats %+v, three calls %+v", name, got, exp)
		}
		assertSameLS(t, name, gotL, wantL)
		// The matrix is only worth something if each shape takes the
		// path it was built for.
		switch {
		case c.want == corrupt && !errors.Is(gerr, journal.ErrCorrupt),
			c.want == fails && (gerr == nil || errors.Is(gerr, journal.ErrCorrupt)),
			c.want == recovers && (gerr != nil || got.TornTail),
			c.want == torn && (gerr != nil || !got.TornTail):
			t.Fatalf("%s: err %v, stats %+v: not the outcome the fixture was built for", name, gerr, got)
		}
	}
}
