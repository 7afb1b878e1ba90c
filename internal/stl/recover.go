package stl

import (
	"fmt"
	"os"
	"time"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// Snapshot captures the layer's durable state — extent map, frontier,
// written-sector counter — as a checkpoint snapshot. The mapping slice
// is a copy; the live map is untouched.
func (l *LS) Snapshot() journal.Snapshot {
	ms := make([]extmap.Mapping, 0, l.m.Len())
	l.m.Walk(func(m extmap.Mapping) bool {
		ms = append(ms, m)
		return true
	})
	return journal.Snapshot{Frontier: l.frontier, Written: l.written, Mappings: ms}
}

// ReplayStats describes what recovery found and did.
type ReplayStats struct {
	// FromCheckpoint reports that a checkpoint seeded the state.
	FromCheckpoint bool
	// Replayed is the number of complete journal records applied on top
	// of the checkpoint (or the journal's initial state).
	Replayed int64
	// ReplayedSectors is the sectors those records appended to the log.
	ReplayedSectors int64
	// TornTail reports that the journal ended in a torn or corrupt
	// record, which was discarded — the expected signature of a crash
	// mid-append.
	TornTail bool
	// Generation is the journal generation recovery ended on.
	Generation uint64
	// Verified reports that the seal chain and checkpoint linkage were
	// checked before replay (RecoverOptions.VerifyOnRecover).
	Verified bool
	// SealedSegments is the number of verified seals, when Verified.
	SealedSegments int
	// Workers is the verification worker count the scans ran with (only
	// set by RecoverDirWith; 0 from a bare Recover).
	Workers int
	// JournalBytes is the size of the journal file that was scanned, for
	// throughput reporting (0 when no journal file existed).
	JournalBytes int64
	// Elapsed is the wall-clock duration of RecoverDirWith, including
	// verification, load and replay. Zero it before comparing stats
	// across runs.
	Elapsed time.Duration
}

// RecoverOptions controls directory recovery.
type RecoverOptions struct {
	// VerifyOnRecover audits the directory as journal.VerifyDir does, in
	// the same pass that loads it: every frame CRC, every segment's
	// Merkle root, the seal chain, and the checkpoint⇄journal anchor
	// linkage. Recovery then refuses a directory with damage inside the
	// sealed region (journal.ErrCorrupt, with segment and offset) instead
	// of silently truncating it to a "torn tail". Torn tails — damage
	// past the last seal with no sealed data beyond it — still recover to
	// the verified prefix.
	VerifyOnRecover bool
	// Workers bounds the pool verifying sealed segments concurrently
	// during the scan (journal.ScanBytesWorkers): <= 0 means
	// journal.DefaultRecoveryWorkers (GOMAXPROCS), 1 scans inline. The
	// recovered layer and stats are bit-identical at any count.
	Workers int
}

// Recover rebuilds a log-structured layer from a checkpoint snapshot
// (may be nil: journal-only recovery) and a parsed journal, in two
// passes. A forward check pass walks the records in append order and
// does all the bookkeeping: every write or relocate must land at the
// replay frontier, frontier records move it, and the frontier,
// written-sector counter and ReplayStats advance as the live layer's
// did. An apply pass then builds the extent map newest first: each
// record maps only the sectors no newer record has claimed, and the
// snapshot's mappings fill what is left as the oldest layer, so every
// sector is placed once and nothing is hole-punched. The coalesced map
// is canonical, so the result is bit-identical to replaying every record
// in order through the insert path live writes take; recover_test.go
// keeps that forward replay as the oracle.
//
// The write-ahead discipline makes this exact: a mutation is applied
// only after its record is acknowledged, so the live state at crash
// time is precisely the state after replaying every complete record —
// the torn tail, if any, was never applied.
func Recover(snap *journal.Snapshot, d journal.Data) (*LS, ReplayStats, error) {
	var st ReplayStats
	l := &LS{m: extmap.NewCoalesced()}
	if snap != nil {
		st.FromCheckpoint = true
		l.frontier = snap.Frontier
		l.written = snap.Written
	} else {
		l.frontier = d.InitFrontier
	}
	st.TornTail = d.Torn
	st.Generation = d.Generation
	for i, rec := range d.Records {
		switch rec.Kind {
		case journal.RecWrite, journal.RecRelocate:
			// The record's placement must be the replay frontier: LS
			// appends at the frontier and journals before mutating, so a
			// divergence means the journal does not belong to this
			// checkpoint (or the pair was tampered with) — refuse rather
			// than build a plausible-but-wrong map.
			if rec.Pba != l.frontier {
				return nil, st, fmt.Errorf(
					"stl: record %d places %v at pba %d but the replay frontier is %d (checkpoint/journal mismatch?)",
					i, rec.Lba, rec.Pba, l.frontier)
			}
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
	var gaps []extmap.Resolved
	for i := len(d.Records) - 1; i >= 0; i-- {
		if rec := d.Records[i]; rec.Kind != journal.RecFrontier {
			gaps = l.fill(rec.Lba, rec.Pba, gaps)
		}
	}
	if snap != nil {
		for i := len(snap.Mappings) - 1; i >= 0; i-- {
			gaps = l.fill(snap.Mappings[i].Lba, snap.Mappings[i].Pba, gaps)
		}
	}
	if err := l.m.CheckInvariants(); err != nil {
		return nil, st, fmt.Errorf("stl: recovered map is corrupt: %w", err)
	}
	return l, st, nil
}

// fill maps the sectors of lba that the map does not cover yet to their
// places in the physical run starting at pba. Covered sectors belong to
// a newer record and keep their placement. gaps is scratch space,
// returned for reuse.
func (l *LS) fill(lba geom.Extent, pba geom.Sector, gaps []extmap.Resolved) []extmap.Resolved {
	gaps = gaps[:0]
	l.m.LookupFunc(lba, func(r extmap.Resolved) bool {
		// An unmapped gap resolves to its own LBA. LookupFunc merges it
		// into a neighbouring fragment that is also placed at its own LBA
		// and clears Identity, so such fragments are kept too.
		if r.Identity || r.Pba == r.Lba.Start {
			gaps = append(gaps, r)
		}
		return true
	})
	for _, g := range gaps {
		at := pba + (g.Lba.Start - lba.Start)
		if g.Identity {
			l.m.InsertFunc(g.Lba, at, nil)
			continue
		}
		// A fragment that may mix gaps and newer sectors placed at their
		// own LBA: place all of it, then put the newer sectors back. The
		// log frontier starts above every LBA, so this path is cold.
		for _, newer := range l.m.Insert(g.Lba, at) {
			l.m.InsertFunc(newer.Lba, newer.Pba, nil)
		}
	}
	return gaps
}

// RecoverDir recovers from a journal directory as left by a crash: the
// checkpoint (if any) plus the journal replayed on top, honouring the
// generation rule that discards a stale journal. It is verified
// recovery, exactly as a journaled volume recovers: RecoverDirWith with
// VerifyOnRecover and the default workers.
func RecoverDir(dir string) (*LS, ReplayStats, error) {
	return RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true})
}

// RecoverDirWith is RecoverDir with options. With VerifyOnRecover set
// the directory is read and its journal scanned once
// (journal.LoadDirVerified): that one pass audits the seal chain, the
// checkpoint linkage (anchor and generation succession, which replay
// alone cannot see) and the stale and torn-header rules, and yields the
// records to replay. A directory whose sealed history does not verify
// is refused with the *CorruptError (matching journal.ErrCorrupt)
// naming the damaged file, segment and offset. Without it the pass is
// journal.LoadDirWorkers, which still refuses sealed-region damage.
func RecoverDirWith(dir string, opt RecoverOptions) (*LS, ReplayStats, error) {
	start := time.Now()
	workers := opt.Workers
	if workers <= 0 {
		workers = journal.DefaultRecoveryWorkers()
	}
	var (
		snap  *journal.Snapshot
		d     journal.Data
		audit *journal.Audit
		err   error
	)
	if opt.VerifyOnRecover {
		snap, d, audit, err = journal.LoadDirVerified(dir, workers)
	} else {
		snap, d, err = journal.LoadDirWorkers(dir, workers)
	}
	if err != nil {
		return nil, ReplayStats{}, err
	}
	l, st, err := Recover(snap, d)
	if audit != nil {
		st.Verified = true
		st.SealedSegments = len(audit.Segments)
	}
	st.Workers = workers
	if fi, serr := os.Stat(journal.JournalPath(dir)); serr == nil {
		st.JournalBytes = fi.Size()
	}
	st.Elapsed = time.Since(start)
	return l, st, err
}
