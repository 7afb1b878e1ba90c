package core

import (
	"errors"
	"fmt"
	"time"

	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// JournalConfig enables write-ahead journaling of the log-structured
// layer's mutations: every host write and defrag relocation is appended
// to the log before the extent map is touched, and the full state is
// checkpointed periodically. A simulation that stops at any point —
// including an injected crash mid-append — can then be recovered with
// stl.RecoverDir to state bit-identical to the live layer.
type JournalConfig struct {
	// Log is the open write-ahead log (journal.Open). The simulator
	// appends to it and checkpoints through it; the caller closes it.
	Log *journal.Log
	// CheckpointEvery checkpoints the layer after this many journal
	// records have accumulated since the last checkpoint. 0 never
	// checkpoints (the journal grows for the whole run).
	CheckpointEvery int64
}

// Validate reports configuration errors.
func (c JournalConfig) Validate() error {
	if c.Log == nil {
		return fmt.Errorf("core: JournalConfig.Log is nil")
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: negative CheckpointEvery %d", c.CheckpointEvery)
	}
	return nil
}

// journalAppend write-ahead-logs one mutation. It returns true when the
// record is buffered in the log and the mutation may proceed; it
// reaches the kernel at the next Commit. On false the caller must NOT
// apply the mutation: the append failed or an injected crash fired,
// s.jerr is set and the simulation is over, so the live state stays
// what replaying the logged records reconstructs.
func (s *Simulator) journalAppend(kind journal.RecordKind, lba geom.Extent, pba geom.Sector) bool {
	err := s.wal.Append(journal.Record{Kind: kind, Lba: lba, Pba: pba})
	if err == nil {
		s.stats.Durability.JournalAppends++
		return true
	}
	if errors.Is(err, journal.ErrCrashed) {
		s.stats.Durability.Crashed = true
	} else {
		s.stats.Durability.AppendFailures++
	}
	s.jerr = err
	return false
}

// maybeCheckpoint checkpoints the layer once enough journal records
// have accumulated. It runs only after an operation's mutations have
// fully completed — checkpointing between a record's append and its
// mutation would truncate a record whose effect is not yet in the
// snapshot.
func (s *Simulator) maybeCheckpoint() {
	if s.wal == nil || s.ckptEvery <= 0 || s.jerr != nil {
		return
	}
	if s.wal.SinceCheckpoint() < s.ckptEvery {
		return
	}
	start := time.Now()
	if err := s.wal.CheckpointMap(s.ls.Frontier(), s.ls.LogSectors(), s.ls.Map()); err != nil {
		if errors.Is(err, journal.ErrCrashed) {
			s.stats.Durability.Crashed = true
		}
		s.jerr = err
		return
	}
	s.stats.Durability.Checkpoints++
	dur := time.Since(start)
	for _, p := range s.probes {
		p.OnCheckpoint(dur)
	}
}

// Commit flushes the journal records buffered since the last Commit
// with one write and returns JournalErr, which a failed flush sets.
func (s *Simulator) Commit() error {
	if s.wal != nil && s.jerr == nil {
		s.jerr = s.wal.Flush()
	}
	return s.jerr
}

// JournalErr returns the sticky journal error that stopped the
// simulation (journal.ErrCrashed after an injected crash point), or nil.
func (s *Simulator) JournalErr() error { return s.jerr }
