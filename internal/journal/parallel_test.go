package journal

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// workerMatrix is the worker counts every differential test sweeps: the
// inline path, minimal real concurrency, and heavy oversubscription
// (far more workers than this box has cores).
var workerMatrix = []int{1, 2, 8}

// scansEqual asserts ScanBytesWorkers(raw, workers) is bit-identical to
// the sequential scanner: same Data, same error — CorruptError compared
// field by field, anything else by message.
func scansEqual(t *testing.T, raw []byte, workers int, label string) {
	t.Helper()
	want, werr := scanJournal(raw)
	got, gerr := ScanBytesWorkers(raw, workers)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s workers=%d: Data diverges:\nseq: %+v\npar: %+v", label, workers, want, got)
	}
	if !errorsIdentical(werr, gerr) {
		t.Fatalf("%s workers=%d: error diverges:\nseq: %v\npar: %v", label, workers, werr, gerr)
	}
}

func errorsIdentical(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	var ca, cb *CorruptError
	aIs, bIs := errors.As(a, &ca), errors.As(b, &cb)
	if aIs != bIs {
		return false
	}
	if aIs {
		return *ca == *cb
	}
	return a.Error() == b.Error()
}

// sealedWithTail builds a journal with nSeals sealed segments plus tail
// extra unsealed records, returning the journal and checkpoint bytes.
func sealedWithTail(t *testing.T, nSeals, tail int) (jraw, craw []byte) {
	t.Helper()
	dir := t.TempDir()
	l := buildSealedPair(t, dir, nSeals)
	var pba int64 = int64(4 + 8*nSeals)
	for i := 0; i < tail; i++ {
		if err := l.Append(rec(RecWrite, pba, 4, pba)); err != nil {
			t.Fatal(err)
		}
		pba += 4
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	jraw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	craw, err = os.ReadFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return jraw, craw
}

// TestParallelScanDifferentialFlips flips every byte of a sealed
// journal (header, records, seals, unsealed tail) one at a time and
// asserts the parallel scan is bit-identical to the sequential one at
// every worker count: same records, same seals, same torn-vs-corrupt
// verdict, same CorruptError file/segment/offset/reason.
func TestParallelScanDifferentialFlips(t *testing.T) {
	jraw, _ := sealedWithTail(t, 3, 1)
	for _, w := range workerMatrix {
		scansEqual(t, jraw, w, "pristine")
	}
	for i := range jraw {
		mut := mutate(jraw, i, 0xff)
		for _, w := range workerMatrix {
			scansEqual(t, mut, w, "flip")
		}
	}
}

// TestParallelScanDifferentialTruncation cuts the journal to every
// possible length — torn headers, torn frames, torn seals — and asserts
// parity at every worker count.
func TestParallelScanDifferentialTruncation(t *testing.T) {
	jraw, _ := sealedWithTail(t, 3, 1)
	for cut := 0; cut <= len(jraw); cut++ {
		for _, w := range workerMatrix {
			scansEqual(t, jraw[:cut], w, "cut")
		}
	}
}

// TestParallelScanDifferentialDoubleDamage damages two widely separated
// segments at once: with many workers both damages are found
// concurrently, and the lowest-offset one must win deterministically —
// the applier consumes results in job order, so which worker finished
// first is irrelevant.
func TestParallelScanDifferentialDoubleDamage(t *testing.T) {
	jraw, _ := sealedWithTail(t, 6, 0)
	d, err := scanJournal(jraw)
	if err != nil || len(d.Seals) != 6 {
		t.Fatalf("pristine journal: %v, %d seals", err, len(d.Seals))
	}
	// A record byte inside segment 0 and one inside segment 4.
	early := int(d.Seals[0].Offset) - frameSize + 10
	late := int(d.Seals[4].Offset) - frameSize + 10
	mut := mutate(mutate(jraw, late, 0x5a), early, 0x5a)

	wantD, wantErr := scanJournal(mut)
	var ce *CorruptError
	if !errors.As(wantErr, &ce) {
		t.Fatalf("sequential scan of double damage: %v, want CorruptError", wantErr)
	}
	if want := d.Seals[0].Offset - frameSize; ce.Offset != want {
		t.Fatalf("sequential first error at offset %d, want %d (the damaged frame in segment 0)", ce.Offset, want)
	}
	// Many repetitions: worker completion order varies run to run, the
	// result must not.
	for run := 0; run < 25; run++ {
		got, gerr := ScanBytesWorkers(mut, 8)
		if !reflect.DeepEqual(wantD, got) || !errorsIdentical(wantErr, gerr) {
			t.Fatalf("run %d: double-damage scan diverged: %+v / %v, want %+v / %v",
				run, got, gerr, wantD, wantErr)
		}
	}
}

// TestVerifyDirWorkersAuditIdentical runs the full directory audit at
// every worker count over clean, corrupt, torn-truncated and stale
// inputs, asserting the Audit JSON (the wire/CLI surface) and the error
// are identical to the sequential audit.
func TestVerifyDirWorkersAuditIdentical(t *testing.T) {
	jraw, craw := sealedWithTail(t, 3, 1)
	cases := map[string]string{
		"clean":     writePair(t, jraw, craw),
		"corrupt":   writePair(t, mutate(jraw, headerSize+10, 0xff), craw),
		"torn":      writePair(t, jraw[:len(jraw)-20], craw),
		"no-ckpt":   writePair(t, jraw, nil),
		"ckpt-only": writePair(t, nil, craw),
	}
	for name, dir := range cases {
		want, werr := VerifyDirWorkers(dir, 1)
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerMatrix {
			got, gerr := VerifyDirWorkers(dir, w)
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("%s workers=%d: audit diverges:\nseq: %s\npar: %s", name, w, wantJSON, gotJSON)
			}
			if !errorsIdentical(werr, gerr) {
				t.Fatalf("%s workers=%d: error diverges: %v vs %v", name, w, werr, gerr)
			}
		}
	}
}

// TestParallelScanLeavesMatchProve checks the leaf hashes the parallel
// scan hands back (the ones Open installs for Prove) against a freshly
// recomputed per-record hash, and that proofs built from them verify.
func TestParallelScanLeavesMatchProve(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	d, leaves, err := scanJournalParallel(raw, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != len(d.Records) {
		t.Fatalf("%d leaves for %d records", len(leaves), len(d.Records))
	}
	for i, r := range d.Records {
		frame := MarshalRecord(r)
		if want := LeafHash(frame[4 : 4+payloadSize]); leaves[i] != want {
			t.Fatalf("leaf %d: %s, want %s", i, leaves[i].Short(), want.Short())
		}
	}
	// And the reopened log proves every sealed record with those leaves.
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for seq := int64(1); seq <= d.Sealed; seq++ {
		p, err := l2.Prove(seq)
		if err != nil {
			t.Fatalf("prove %d: %v", seq, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("proof %d does not verify: %v", seq, err)
		}
	}
}

// TestParallelScanSpeedup measures the parallel scan of a large sealed
// journal against the sequential one and logs the ratio on any machine
// with at least 2 cores. With at least 4 it is also the perf acceptance
// gate: the parallel scan must be at least 2x faster. A single core has
// nothing to measure; the differential tests above pin correctness.
func TestParallelScanSpeedup(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("GOMAXPROCS=%d, nothing to run in parallel", procs)
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	// A journal big enough that verification cost (SHA-256 per record,
	// Merkle root per segment) dwarfs pipeline overhead.
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetSegmentSize(512); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if err := l.Append(rec(RecWrite, int64(i)%100000*8, 8, int64(i)*8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	timeScan := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 3; run++ {
			start := time.Now()
			if _, err := ScanBytesWorkers(raw, workers); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seq := timeScan(1)
	par := timeScan(procs)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel(%d) %v: %.2fx", seq, procs, par, speedup)
	if procs >= 4 && speedup < 2 {
		t.Errorf("parallel scan speedup %.2fx at %d workers, want >= 2x", speedup, procs)
	}
}

// TestScanBytesWorkersDefaults covers the workers<=0 path (GOMAXPROCS)
// and worker counts far beyond the job count.
func TestScanBytesWorkersDefaults(t *testing.T) {
	jraw, _ := sealedWithTail(t, 2, 1)
	for _, w := range []int{0, -1, 64} {
		scansEqual(t, jraw, w, "defaults")
	}
}
