package stl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// journaledWrite appends the record for a write and applies it, the way
// the simulator does: append first, mutate only on success.
func journaledWrite(t *testing.T, l *LS, log *journal.Log, lba geom.Extent) bool {
	t.Helper()
	rec := journal.Record{Kind: journal.RecWrite, Lba: lba, Pba: l.Frontier()}
	if err := log.Append(rec); err != nil {
		if !errors.Is(err, journal.ErrCrashed) {
			t.Fatalf("append: %v", err)
		}
		return false
	}
	l.WriteAppend(nil, lba)
	return true
}

// replayForward is the replay Recover's apply pass replaced, kept as its
// oracle: the snapshot's mappings, then every record in append order,
// each through the hole-punching insert path live writes take.
func replayForward(snap *journal.Snapshot, d journal.Data) (*LS, ReplayStats, error) {
	var st ReplayStats
	l := &LS{m: extmap.NewCoalesced()}
	if snap != nil {
		st.FromCheckpoint = true
		l.frontier = snap.Frontier
		l.written = snap.Written
		for _, m := range snap.Mappings {
			l.m.Insert(m.Lba, m.Pba)
		}
	} else {
		l.frontier = d.InitFrontier
	}
	st.TornTail = d.Torn
	st.Generation = d.Generation
	for i, rec := range d.Records {
		switch rec.Kind {
		case journal.RecWrite, journal.RecRelocate:
			if rec.Pba != l.frontier {
				return nil, st, fmt.Errorf(
					"stl: record %d places %v at pba %d but the replay frontier is %d (checkpoint/journal mismatch?)",
					i, rec.Lba, rec.Pba, l.frontier)
			}
			l.m.Insert(rec.Lba, rec.Pba)
			l.frontier += rec.Lba.Count
			l.written += rec.Lba.Count
			st.ReplayedSectors += rec.Lba.Count
		case journal.RecFrontier:
			l.frontier = rec.Pba
		default:
			return nil, st, fmt.Errorf("stl: record %d has unknown kind %d", i, rec.Kind)
		}
		st.Replayed++
	}
	if err := l.m.CheckInvariants(); err != nil {
		return nil, st, fmt.Errorf("stl: recovered map is corrupt: %w", err)
	}
	return l, st, nil
}

// sameError reports whether two errors are the same outcome: both nil,
// equal *CorruptErrors field for field, or otherwise equal messages.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var ca, cb *journal.CorruptError
	if errors.As(a, &ca) != errors.As(b, &cb) {
		return false
	}
	if ca != nil {
		return *ca == *cb
	}
	return a.Error() == b.Error()
}

// assertSameLS checks two recovery results hold the same layer: both
// absent, or Equal maps, frontiers and written counters.
func assertSameLS(t testing.TB, label string, got, want *LS) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: layer %v, want %v", label, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if diff := want.Map().Diff(got.Map()); diff != "" {
		t.Fatalf("%s: map diverges: %s", label, diff)
	}
	if got.Frontier() != want.Frontier() || got.LogSectors() != want.LogSectors() {
		t.Fatalf("%s: frontier/written (%d,%d), want (%d,%d)",
			label, got.Frontier(), got.LogSectors(), want.Frontier(), want.LogSectors())
	}
}

// assertMatchesForward checks Recover ≡ replayForward on one input: the
// same error or the same success, equal ReplayStats, the same layer.
func assertMatchesForward(t testing.TB, label string, snap *journal.Snapshot, d journal.Data) *LS {
	t.Helper()
	got, gst, gerr := Recover(snap, d)
	want, wst, werr := replayForward(snap, d)
	if !sameError(gerr, werr) {
		t.Fatalf("%s: err %v, forward replay %v", label, gerr, werr)
	}
	if gst != wst {
		t.Fatalf("%s: stats %+v, forward replay %+v", label, gst, wst)
	}
	assertSameLS(t, label, got, want)
	return got
}

func assertRecoveredEqual(t testing.TB, live, rec *LS) {
	t.Helper()
	if diff := live.Map().Diff(rec.Map()); diff != "" {
		t.Errorf("recovered map diverges: %s", diff)
	}
	if live.Frontier() != rec.Frontier() {
		t.Errorf("frontier: live %d, recovered %d", live.Frontier(), rec.Frontier())
	}
	if live.LogSectors() != rec.LogSectors() {
		t.Errorf("written: live %d, recovered %d", live.LogSectors(), rec.LogSectors())
	}
	if err := rec.Map().CheckInvariants(); err != nil {
		t.Errorf("recovered map invariants: %v", err)
	}
}

func TestRecoverReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := NewLS(1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		lba := geom.Ext(rng.Int63n(4000), rng.Int63n(64)+1)
		if !journaledWrite(t, live, log, lba) {
			t.Fatal("unexpected crash")
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, st, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCheckpoint || st.TornTail || st.Replayed != 500 {
		t.Errorf("stats = %+v, want 500 replayed, no checkpoint, no torn tail", st)
	}
	assertRecoveredEqual(t, live, rec)
}

func TestRecoverFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := NewLS(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		journaledWrite(t, live, log, geom.Ext(rng.Int63n(2000), rng.Int63n(32)+1))
		if i%100 == 99 {
			if err := log.Checkpoint(live.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 400 writes, checkpoint at 100/200/300/400: nothing after the last
	// checkpoint yet. Add a tail.
	for i := 0; i < 37; i++ {
		journaledWrite(t, live, log, geom.Ext(rng.Int63n(2000), rng.Int63n(32)+1))
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, st, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FromCheckpoint || st.Replayed != 37 || st.TornTail {
		t.Errorf("stats = %+v, want checkpoint + 37 replayed", st)
	}
	assertRecoveredEqual(t, live, rec)
}

func TestRecoverAfterTornCrash(t *testing.T) {
	// Crash on the 50th append with a torn half-record: recovery must
	// reproduce the live state, which never applied the failed write.
	for _, torn := range []int{0, 13, 40} {
		dir := t.TempDir()
		log, err := journal.Open(dir, 500)
		if err != nil {
			t.Fatal(err)
		}
		log.CrashAfter(50, torn)
		live := NewLS(500)
		rng := rand.New(rand.NewSource(3))
		crashed := false
		for i := 0; i < 100; i++ {
			if !journaledWrite(t, live, log, geom.Ext(rng.Int63n(1000), rng.Int63n(16)+1)) {
				crashed = true
				break
			}
		}
		log.Close()
		if !crashed {
			t.Fatal("crash point never fired")
		}
		rec, st, err := RecoverDir(dir)
		if err != nil {
			t.Fatalf("torn=%d: %v", torn, err)
		}
		if st.Replayed != 49 {
			t.Errorf("torn=%d: replayed %d, want 49", torn, st.Replayed)
		}
		if wantTorn := torn > 0; st.TornTail != wantTorn {
			t.Errorf("torn=%d: TornTail=%v, want %v", torn, st.TornTail, wantTorn)
		}
		assertRecoveredEqual(t, live, rec)
	}
}

func TestRecoverRejectsFrontierMismatch(t *testing.T) {
	d := journal.Data{
		Generation:   1,
		InitFrontier: 100,
		Records: []journal.Record{
			{Kind: journal.RecWrite, Lba: geom.Ext(0, 4), Pba: 100},
			{Kind: journal.RecWrite, Lba: geom.Ext(8, 4), Pba: 999}, // not the frontier
		},
	}
	if _, _, err := Recover(nil, d); err == nil || !strings.Contains(err.Error(), "frontier") {
		t.Errorf("err = %v, want frontier mismatch", err)
	}
}

func TestRecoverFrontierRecord(t *testing.T) {
	d := journal.Data{
		Generation:   1,
		InitFrontier: 100,
		Records: []journal.Record{
			{Kind: journal.RecWrite, Lba: geom.Ext(0, 4), Pba: 100},
			{Kind: journal.RecFrontier, Pba: 5000},
			{Kind: journal.RecWrite, Lba: geom.Ext(4, 2), Pba: 5000},
		},
	}
	l, st, err := Recover(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if l.Frontier() != 5002 || st.Replayed != 3 {
		t.Errorf("frontier %d replayed %d, want 5002/3", l.Frontier(), st.Replayed)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	live := NewLS(1 << 20)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		live.WriteAppend(nil, geom.Ext(rng.Int63n(1<<18), rng.Int63n(256)+1))
	}
	snap := live.Snapshot()
	rec, st, err := Recover(&snap, journal.Data{Generation: snap.Generation + 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FromCheckpoint || st.Replayed != 0 {
		t.Errorf("stats = %+v", st)
	}
	assertRecoveredEqual(t, live, rec)
}

// mixedJournal journals overlapping partial rewrites, a relocate, and
// frontier moves between writes — one of them down to an LBA, so a
// later write lands at its own address — with most of it sealed. It
// returns the journal bytes, checked to recover to the live layer.
func mixedJournal(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	log, err := journal.Open(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetSegmentSize(3); err != nil {
		t.Fatal(err)
	}
	live := NewLS(1000)
	write := func(kind journal.RecordKind, lba geom.Extent) {
		if err := log.Append(journal.Record{Kind: kind, Lba: lba, Pba: live.Frontier()}); err != nil {
			t.Fatal(err)
		}
		live.WriteAppend(nil, lba)
	}
	moveFrontier := func(to geom.Sector) {
		if err := log.Append(journal.Record{Kind: journal.RecFrontier, Pba: to}); err != nil {
			t.Fatal(err)
		}
		live.frontier = to
	}
	write(journal.RecWrite, geom.Ext(0, 16))
	write(journal.RecWrite, geom.Ext(40, 20))
	write(journal.RecWrite, geom.Ext(8, 4)) // inside the first
	moveFrontier(5000)
	write(journal.RecWrite, geom.Ext(4, 16)) // straddles both ends of older pieces
	write(journal.RecRelocate, geom.Ext(0, 8))
	moveFrontier(50)
	write(journal.RecWrite, geom.Ext(50, 4)) // placed at its own LBA
	moveFrontier(9000)
	write(journal.RecWrite, geom.Ext(2, 4))
	write(journal.RecWrite, geom.Ext(12, 30))
	write(journal.RecWrite, geom.Ext(56, 2))
	write(journal.RecWrite, geom.Ext(20, 3)) // the unsealed tail
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	d, err := journal.ScanBytes(raw)
	if err != nil || len(d.Seals) != 4 || len(d.Records) != 13 {
		t.Fatalf("mixed journal: %d seals, %d records, %v", len(d.Seals), len(d.Records), err)
	}
	assertRecoveredEqual(t, live, assertMatchesForward(t, "pristine", nil, d))
	return raw
}

// TestRecoverMatchesForwardOnDamagedJournals pins Recover ≡ the forward
// replay on every truncation and every single-byte flip of a small
// sealed journal, and on every record with its placement or kind
// damaged (the paths where the check pass fails part-way).
func TestRecoverMatchesForwardOnDamagedJournals(t *testing.T) {
	raw := mixedJournal(t)
	// A scan that fails still hands back the records before the damage;
	// replay them anyway, for more inputs.
	replay := func(label string, b []byte) {
		d, _ := journal.ScanBytes(b)
		assertMatchesForward(t, label, nil, d)
	}
	for n := 0; n <= len(raw); n++ {
		replay(fmt.Sprintf("cut %d", n), raw[:n])
	}
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		replay(fmt.Sprintf("flip %d", i), mut)
	}
	d, err := journal.ScanBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Records {
		for _, damage := range []func(*journal.Record){
			func(r *journal.Record) { r.Pba++ },
			func(r *journal.Record) { r.Kind = 9 },
		} {
			bad := d
			bad.Records = append([]journal.Record(nil), d.Records...)
			damage(&bad.Records[i])
			assertMatchesForward(t, fmt.Sprintf("record %d damaged", i), nil, bad)
		}
	}
}

// TestRecoverMatchesForwardCheckpointPlusTail pins Recover ≡ the forward
// replay on a checkpoint-plus-tail directory: the snapshot is the oldest
// layer under a tail that overwrites parts of it.
func TestRecoverMatchesForwardCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := NewLS(1 << 16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		journaledWrite(t, live, log, geom.Ext(rng.Int63n(4000), rng.Int63n(48)+1))
	}
	if err := log.Checkpoint(live.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		journaledWrite(t, live, log, geom.Ext(rng.Int63n(4000), rng.Int63n(48)+1))
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, d, err := journal.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || len(snap.Mappings) < 100 || len(d.Records) != 120 {
		t.Fatalf("fixture: snapshot %v, %d tail records", snap != nil, len(d.Records))
	}
	assertRecoveredEqual(t, live, assertMatchesForward(t, "checkpoint+tail", snap, d))
}

// TestRecoverCoalescesHandWrittenCheckpoint: a checkpoint need not come
// from a coalesced map. Two LBA-adjacent, PBA-contiguous mappings are a
// valid checkpoint, and both replays must coalesce them.
func TestRecoverCoalescesHandWrittenCheckpoint(t *testing.T) {
	var buf bytes.Buffer
	if _, err := journal.WriteCheckpoint(&buf, journal.Snapshot{
		Generation: 1, Frontier: 300, Written: 28,
		Mappings: []extmap.Mapping{
			{Lba: geom.Ext(0, 8), Pba: 200},
			{Lba: geom.Ext(8, 16), Pba: 208},
			{Lba: geom.Ext(100, 4), Pba: 280},
		},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), journal.CheckpointFile)
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	snap, err := journal.ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("ReadCheckpointFile rejected the hand-written checkpoint: %v", err)
	}
	alone := assertMatchesForward(t, "checkpoint alone", snap, journal.Data{Generation: 2})
	var got []extmap.Resolved
	alone.Map().LookupFunc(geom.Ext(0, 24), func(r extmap.Resolved) bool {
		got = append(got, r)
		return true
	})
	if alone.Map().Len() != 2 || len(got) != 1 || got[0].Pba != 200 {
		t.Errorf("checkpoint alone: %d mappings, [0,24) resolves to %v; want 2 and one fragment at 200",
			alone.Map().Len(), got)
	}
	assertMatchesForward(t, "checkpoint+tail", snap, journal.Data{Generation: 2, Records: []journal.Record{
		{Kind: journal.RecWrite, Lba: geom.Ext(4, 8), Pba: 300},
		{Kind: journal.RecWrite, Lba: geom.Ext(24, 4), Pba: 308},
	}})
	// Nor need its mappings be disjoint: a later mapping wins, as when
	// they are inserted in order.
	assertMatchesForward(t, "overlapping checkpoint", &journal.Snapshot{
		Generation: 1, Frontier: 600,
		Mappings: []extmap.Mapping{
			{Lba: geom.Ext(0, 16), Pba: 200},
			{Lba: geom.Ext(8, 16), Pba: 300},
			{Lba: geom.Ext(4, 4), Pba: 500},
			{Lba: geom.Ext(8, 2), Pba: 208},
		},
	}, journal.Data{Generation: 2})
}

// TestRecoverApplyAllocs pins what Recover allocates on ~20 k records of
// overlapping rewrites: the extent map's leaf arrays (one per split)
// and a few scratch buffers, never one per record. The forward replay
// through Insert allocated at least once per record.
func TestRecoverApplyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := journal.Data{Generation: 1, InitFrontier: 1 << 20}
	pba := d.InitFrontier
	for i := 0; i < 20000; i++ {
		lba := geom.Ext(rng.Int63n(1<<16), rng.Int63n(64)+1)
		d.Records = append(d.Records, journal.Record{Kind: journal.RecWrite, Lba: lba, Pba: pba})
		pba += lba.Count
	}
	l, _, err := Recover(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Recover(nil, d); err != nil {
			t.Fatal(err)
		}
	})
	bound := float64(l.Map().Len()/64 + 16)
	t.Logf("%d records, %d mappings: %.0f allocs per Recover (bound %.0f)",
		len(d.Records), l.Map().Len(), allocs, bound)
	if allocs > bound {
		t.Errorf("Recover allocated %.0f times, want <= %.0f", allocs, bound)
	}
}

// TestRecoverNestedRewrites pins the apply pass's cost on nested
// rewrites of 80 000 records each, where a pass that walks every newer
// mapping inside each record is quadratic: older records longer with one
// shared start, newer records starting and ending earlier, and newer
// records longer on both sides. Each must match the forward replay and
// recover in under 2 s (the quadratic pass took 46 s and 51 s on the
// first two patterns on 2 vCPUs).
func TestRecoverNestedRewrites(t *testing.T) {
	const n = 80000
	for _, p := range []struct {
		name string
		ext  func(i int64) geom.Extent
	}{
		{"older-longer-same-start", func(i int64) geom.Extent { return geom.Ext(0, n-i) }},
		{"newer-earlier", func(i int64) geom.Extent { return geom.Ext(n-i, n) }},
		{"newer-longer", func(i int64) geom.Extent { return geom.Ext(n-i, 2*i+1) }},
	} {
		d := journal.Data{Generation: 1, InitFrontier: 4 * n}
		pba := d.InitFrontier
		for i := int64(0); i < n; i++ {
			lba := p.ext(i)
			d.Records = append(d.Records, journal.Record{Kind: journal.RecWrite, Lba: lba, Pba: pba})
			pba += lba.Count
		}
		start := time.Now()
		got, _, err := Recover(nil, d)
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want, _, err := replayForward(nil, d)
		if err != nil {
			t.Fatalf("%s: forward replay: %v", p.name, err)
		}
		assertSameLS(t, p.name, got, want)
		t.Logf("%s: %d mappings, Recover took %v", p.name, got.Map().Len(), took)
		if took > 2*time.Second {
			t.Errorf("%s: Recover took %v, want under 2 s", p.name, took)
		}
	}
}

func TestRecoverDirWithVerify(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	live := NewLS(0)
	for i := 0; i < 6; i++ {
		journaledWrite(t, live, log, geom.Ext(int64(i)*8, 8))
	}
	log.Close()

	// Clean sealed journal: verified recovery succeeds and says so.
	rec, st, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verified || st.SealedSegments != 3 || st.Replayed != 6 {
		t.Errorf("stats = %+v, want verified with 3 sealed segments", st)
	}
	// The stats smrd logs are populated.
	if st.JournalBytes == 0 || st.Elapsed <= 0 {
		t.Errorf("recovery stats not populated: %+v", st)
	}
	assertRecoveredEqual(t, live, rec)

	// RecoverDir is verified recovery too.
	if _, st, err := RecoverDir(dir); err != nil || !st.Verified {
		t.Errorf("RecoverDir: %+v, %v, want verified", st, err)
	}

	// Flip one byte inside the sealed region: verified recovery refuses
	// with ErrCorrupt; the error names the journal file.
	raw, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[42] ^= 0x01 // inside the first record frame
	if err := os.WriteFile(journal.JournalPath(dir), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true}); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("verified recovery of corrupt dir: %v, want ErrCorrupt", err)
	}

	// A torn tail past the last seal is crash residue: verified recovery
	// still succeeds, replaying the verified prefix.
	raw[42] ^= 0x01 // undo
	frame := journal.MarshalRecord(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(48, 8), Pba: 48})
	torn := append(append([]byte(nil), raw...), frame[:20]...)
	if err := os.WriteFile(journal.JournalPath(dir), torn, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, st, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true}); err != nil ||
		!st.TornTail || st.Replayed != 6 {
		t.Errorf("verified recovery of torn dir: %+v, %v", st, err)
	}
}

// FuzzJournalReplay feeds arbitrary bytes through the full recovery
// pipeline: journal parse (which must stop cleanly at any torn or
// corrupt tail) and replay, which must match the forward replay — the
// same error, or the same layer with a map whose invariants hold —
// and never panic.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed journal: header + a few records.
	dir := f.TempDir()
	log, err := journal.Open(dir, 100)
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := log.Append(journal.Record{
			Kind: journal.RecWrite, Lba: geom.Ext(i*8, 8), Pba: 100 + i*8,
		}); err != nil {
			f.Fatal(err)
		}
	}
	log.Close()
	seed, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail
	f.Add([]byte("SMRWAL02"))

	// And a sealed journal: small segments so the seed carries several
	// seal frames for the fuzzer to mangle.
	sdir := f.TempDir()
	slog, err := journal.Open(sdir, 100)
	if err != nil {
		f.Fatal(err)
	}
	if err := slog.SetSegmentSize(2); err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := slog.Append(journal.Record{
			Kind: journal.RecWrite, Lba: geom.Ext(i*8, 8), Pba: 100 + i*8,
		}); err != nil {
			f.Fatal(err)
		}
	}
	slog.Close()
	sealed, err := os.ReadFile(journal.JournalPath(sdir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-10]) // torn inside the final seal frame
	f.Add(mixedJournal(f))         // relocate, frontier moves, a write at its own LBA
	// Equal starts, nested extents and frontier moves (a negative count
	// moves the frontier to the start instead of writing).
	f.Add(writeJournal(f, 100, []geom.Extent{
		geom.Ext(0, 16), geom.Ext(0, 8), geom.Ext(0, 24), geom.Ext(40, 30),
		geom.Ext(45, 5), geom.Ext(30, 50), geom.Ext(50, -1), geom.Ext(50, 4),
		geom.Ext(500, -1), geom.Ext(0, 16), geom.Ext(48, 2), geom.Ext(47, 3),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := journal.ScanBytes(data)
		if err != nil {
			return // damaged header: rejected, fine
		}
		if l := assertMatchesForward(t, "fuzz", nil, d); l != nil {
			if err := l.Map().CheckInvariants(); err != nil {
				t.Fatalf("recovered map violates invariants: %v", err)
			}
		}
		// Fold a prefix, cut where the input's last byte says, into a
		// checkpoint and recover the rest on top of it.
		cut := int(data[len(data)-1]) % (len(d.Records) + 1)
		head, tail := d, d
		head.Records, tail.Records = d.Records[:cut], d.Records[cut:]
		pre, _, err := replayForward(nil, head)
		if err != nil {
			return // inconsistent prefix: rejected, fine
		}
		snap := pre.Snapshot()
		assertMatchesForward(t, "checkpoint+tail", &snap, tail)
	})
}

// writeJournal journals writes of exts at the frontier that starts at
// init, and returns the journal bytes. An extent with a negative count
// is a frontier move to its start.
func writeJournal(t testing.TB, init geom.Sector, exts []geom.Extent) []byte {
	t.Helper()
	dir := t.TempDir()
	log, err := journal.Open(dir, init)
	if err != nil {
		t.Fatal(err)
	}
	frontier := init
	for _, e := range exts {
		rec := journal.Record{Kind: journal.RecWrite, Lba: e, Pba: frontier}
		if e.Count < 0 {
			rec = journal.Record{Kind: journal.RecFrontier, Pba: e.Start}
			frontier = e.Start
		} else {
			frontier += e.Count
		}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
