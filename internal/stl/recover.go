package stl

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// Snapshot captures the layer's durable state — extent map, frontier,
// written-sector counter — as a checkpoint snapshot. The mapping slice
// is a copy; the live map is untouched. Checkpoints do not use it: they
// stream from Map through journal.Log.CheckpointMap. It is kept for the
// benchmark module and for tests.
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
	// Verified reports that the seals and the checkpoint pairing were
	// checked before replay (RecoverOptions.VerifyOnRecover).
	Verified bool
	// SealedSegments is the number of verified seals, when Verified.
	SealedSegments int
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
	// the same pass that loads it: every frame CRC, every seal, and the
	// checkpoint⇄journal pairing. Recovery then refuses a directory with
	// damage inside the sealed region (journal.ErrCorrupt, with segment
	// and offset) instead of silently truncating it to a "torn tail".
	// Torn tails — damage past the last seal with no sealed data beyond
	// it — still recover to the verified prefix.
	VerifyOnRecover bool
	// Workers is ignored. It is kept only for bench/ladder.go.
	Workers int
}

// Recover rebuilds a log-structured layer from a checkpoint snapshot
// (may be nil: journal-only recovery) and a parsed journal, in two
// passes. A forward check pass walks the records in append order and
// does all the bookkeeping: every write or relocate must land at the
// replay frontier, frontier records move it, and the frontier,
// written-sector counter and ReplayStats advance as the live layer's
// did. An apply pass then builds the extent map in one sweep in LBA
// order over the records and, as the oldest layer, the snapshot's
// mappings: each run of sectors goes to the newest placement covering
// it, appended to the map with no search or hole punch. The coalesced map
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
	s := layers{recs: d.Records}
	if snap != nil {
		s.ms = snap.Mappings
	}
	if len(s.recs) > math.MaxInt32-len(s.ms) {
		return nil, st, fmt.Errorf("stl: %d records and %d mappings overflow the apply pass's int32 indices", len(s.recs), len(s.ms))
	}
	s.sweep(l.m)
	if err := l.m.CheckInvariants(); err != nil {
		return nil, st, fmt.Errorf("stl: recovered map is corrupt: %w", err)
	}
	return l, st, nil
}

// layers numbers the placements Recover stacks, oldest first: k < 0 is
// checkpoint mapping len(ms)+k and k >= 0 is journal record k.
type layers struct {
	ms   []extmap.Mapping
	recs []journal.Record
}

func (s *layers) at(k int32) extmap.Mapping {
	if k < 0 {
		return s.ms[len(s.ms)+int(k)]
	}
	return extmap.Mapping{Lba: s.recs[k].Lba, Pba: s.recs[k].Pba}
}

// radixKey orders sectors as unsigned integers, negative ones first.
func radixKey(s geom.Sector) uint64 { return uint64(s) ^ 1<<63 }

// radixBits is byStart's digit width: one digit's counters fit in L1.
const radixBits = 12

// byStart returns the indices of the non-empty placements by ascending
// LBA start, equal starts oldest first: an LSD radix sort of int32
// indices (8 bytes per record) that skips each digit all starts share.
func (s *layers) byStart() []int32 {
	idx := make([]int32, 0, len(s.ms)+len(s.recs))
	count := make([][1 << radixBits]int32, (64+radixBits-1)/radixBits)
	for k := -int32(len(s.ms)); k < int32(len(s.recs)); k++ {
		if m := s.at(k); !m.Lba.Empty() && (k < 0 || s.recs[k].Kind != journal.RecFrontier) {
			idx = append(idx, k)
			for b, u := 0, radixKey(m.Lba.Start); b < len(count); b, u = b+1, u>>radixBits {
				count[b][u&(1<<radixBits-1)]++
			}
		}
	}
	tmp := make([]int32, len(idx))
	for b := range count {
		c := &count[b]
		if slices.Contains(c[:], int32(len(idx))) {
			continue // every start has this digit
		}
		var sum int32
		for v, n := range c {
			c[v], sum = sum, sum+n
		}
		for _, k := range idx {
			v := radixKey(s.at(k).Lba.Start) >> (radixBits * b) & (1<<radixBits - 1)
			tmp[c[v]] = k
			c[v]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

// sweep builds m in one pass in LBA order. A max-heap holds the indices
// of the placements started at or before pos; the newest one still
// covering pos owns the sectors up to its end or the next start, and
// that run is appended to m. A placement inside a newer one is never
// pushed, an ended one is dropped when it surfaces, and the heap is
// compacted each time it doubles, so it never holds more than twice the
// most placements live at once.
func (s *layers) sweep(m *extmap.Map) {
	idx := s.byStart()
	h, limit, pos := []int32(nil), 64, geom.Sector(0)
	for i := 0; ; {
		for len(h) > 0 && s.at(h[0]).Lba.End() <= pos {
			h[0], h = h[len(h)-1], h[:len(h)-1]
			siftDown(h, 0)
		}
		if len(h) == 0 {
			if i == len(idx) {
				return
			}
			pos = s.at(idx[i]).Lba.Start
		}
		for ; i < len(idx) && s.at(idx[i]).Lba.Start == pos; i++ {
			k := idx[i]
			if len(h) > 0 && h[0] > k && s.at(h[0]).Lba.End() >= s.at(k).Lba.End() {
				continue
			}
			h = append(h, k)
			siftUp(h, len(h)-1)
		}
		top := s.at(h[0])
		next := top.Lba.End()
		if i < len(idx) {
			next = min(next, s.at(idx[i]).Lba.Start)
		}
		m.Append(geom.Span(pos, next), top.Pba+(pos-top.Lba.Start))
		pos = next
		if len(h) >= limit {
			h = slices.DeleteFunc(h, func(k int32) bool { return s.at(k).Lba.End() <= pos })
			for j := len(h)/2 - 1; j >= 0; j-- {
				siftDown(h, j)
			}
			limit = max(64, 2*len(h))
		}
	}
}

// siftUp and siftDown restore the max-heap order of h at index j.
func siftUp(h []int32, j int) {
	for k := h[j]; j > 0 && h[(j-1)/2] < k; j = (j - 1) / 2 {
		h[j], h[(j-1)/2] = h[(j-1)/2], k
	}
}

func siftDown(h []int32, j int) {
	for c := 2*j + 1; c < len(h); j, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[j] >= h[c] {
			return
		}
		h[j], h[c] = h[c], h[j]
	}
}

// RecoverDir recovers from a journal directory as left by a crash: the
// checkpoint (if any) plus the journal replayed on top, honouring the
// generation rule that discards a stale journal. It is verified
// recovery, exactly as a journaled volume recovers: RecoverDirWith with
// VerifyOnRecover.
func RecoverDir(dir string) (*LS, ReplayStats, error) {
	return RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true})
}

// RecoverDirWith is RecoverDir with options. With VerifyOnRecover set
// the directory is read and its journal scanned once
// (journal.LoadDirVerified): that one pass checks the seals, the
// checkpoint pairing (checkpoint CRC and generation succession, which
// replay alone cannot see) and the stale and torn-header rules, and
// yields the records to replay. A directory whose sealed history does
// not verify is refused with the *CorruptError (matching
// journal.ErrCorrupt) naming the damaged file, segment and offset.
// Without it the pass is journal.LoadDir, which still refuses
// sealed-region damage.
func RecoverDirWith(dir string, opt RecoverOptions) (*LS, ReplayStats, error) {
	start := time.Now()
	var (
		snap  *journal.Snapshot
		d     journal.Data
		audit *journal.Audit
		err   error
	)
	if opt.VerifyOnRecover {
		snap, d, audit, err = journal.LoadDirVerified(dir)
	} else {
		snap, d, err = journal.LoadDir(dir)
	}
	if err != nil {
		return nil, ReplayStats{}, err
	}
	l, st, err := Recover(snap, d)
	if audit != nil {
		st.Verified = true
		st.SealedSegments = len(audit.Segments)
	}
	if fi, serr := os.Stat(journal.JournalPath(dir)); serr == nil {
		st.JournalBytes = fi.Size()
	}
	st.Elapsed = time.Since(start)
	return l, st, err
}

// OpenDir opens a journal directory for a log-structured layer: the one
// way a journaled run starts or restarts. A directory that holds no
// state (journal.HoldsState) gets a fresh journal born at frontier, and
// the layer and stats come back nil. Any other directory is recovered
// as RecoverDir does, verified, so damage inside sealed history is
// refused; frontier is then ignored. The recovered state goes to
// journal.Resume, which checkpoints it before the old journal is
// truncated, so a restart that fails or is killed loses nothing.
func OpenDir(dir string, frontier geom.Sector) (*journal.Log, *LS, *ReplayStats, error) {
	held, err := journal.HoldsState(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if !held {
		lg, err := journal.Open(dir, frontier)
		return lg, nil, nil, err
	}
	l, st, err := RecoverDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	lg, err := journal.Resume(dir, st.Generation, l.frontier, l.written, l.m)
	if err != nil {
		return nil, nil, nil, err
	}
	return lg, l, &st, nil
}
