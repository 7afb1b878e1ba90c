package journal

import (
	"errors"
	"fmt"
	"os"
)

// A journal can be damaged in two ways. A torn tail (Data.Torn) is a
// crash signature: recovery truncates to the verified prefix and
// continues. Corruption is damage inside the region the log had already
// sealed: recovering past it would silently drop or mutate acknowledged
// history, so it must fail loudly.
//
// ErrCorrupt marks damage inside the sealed region — a flipped bit in a
// sealed record, a broken seal, a checkpoint that does not pair with the
// journal. Wrapped by *CorruptError; match with errors.Is.
var ErrCorrupt = errors.New("journal: corrupt")

// CorruptError reports where verification failed: which file, which
// segment was being checked, and the byte offset of the damage (or -1
// when the damage is not localizable to an offset, e.g. a checkpoint
// that does not pair with the journal).
type CorruptError struct {
	// File is the damaged file's name within the journal directory
	// (JournalFile or CheckpointFile).
	File string `json:"file"`
	// Segment is the 0-based seal segment being checked when the damage
	// surfaced (for journal damage: the segment the damaged bytes fall
	// in or before).
	Segment int `json:"segment"`
	// Offset is the byte offset of the first damaged frame, or -1.
	Offset int64 `json:"offset"`
	// Reason describes the specific check that failed.
	Reason string `json:"reason"`
}

func (e *CorruptError) Error() string {
	if e.Offset < 0 {
		return fmt.Sprintf("journal: corrupt %s (segment %d): %s", e.File, e.Segment, e.Reason)
	}
	return fmt.Sprintf("journal: corrupt %s at offset %d (segment %d): %s",
		e.File, e.Offset, e.Segment, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold for every CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Audit is the result of verifying a journal directory: the state of
// the checkpoint/journal pair and every seal that checked out. It is
// JSON-serializable for smrverify's -json mode.
type Audit struct {
	// Dir is the audited journal directory.
	Dir string `json:"dir"`
	// HasCheckpoint / HasJournal report which files were present.
	HasCheckpoint bool `json:"has_checkpoint"`
	HasJournal    bool `json:"has_journal"`
	// CheckpointGeneration is the generation the checkpoint subsumes
	// (0 without a checkpoint).
	CheckpointGeneration uint64 `json:"checkpoint_generation"`
	// Mappings is the checkpoint's extent count.
	Mappings int `json:"mappings"`
	// Generation is the live journal's generation (0 without a journal).
	Generation uint64 `json:"generation"`
	// Stale reports that the journal generation is at or before the
	// checkpoint's — a crash between checkpoint rename and truncation.
	// Its content is subsumed and was not verified.
	Stale bool `json:"stale"`
	// Segments are the verified seals in order.
	Segments []Seal `json:"segments"`
	// SealedRecords counts records covered by Segments; TailRecords
	// counts CRC-valid records past the last seal (acknowledged but not
	// yet sealed — damage among them reads as a torn tail).
	SealedRecords int64 `json:"sealed_records"`
	TailRecords   int64 `json:"tail_records"`
	// TailTorn reports a torn (crash-truncated) record at the very end,
	// after every seal. Torn is recoverable; it is not corruption.
	TailTorn bool `json:"tail_torn"`
}

// VerifyDir audits a journal directory without replaying it: it checks
// every frame CRC and every seal, and the checkpoint⇄journal pairing
// (the journal's generation must succeed the checkpoint's and its
// header must carry the checkpoint's CRC; a journal with no checkpoint
// must carry 0). It returns a *CorruptError (matching ErrCorrupt) for
// damage inside the sealed history or an unpaired checkpoint, and a nil
// error for a clean pair — including one with a torn tail or a stale
// journal, which the Audit reports but which are crash signatures, not
// damage.
func VerifyDir(dir string) (*Audit, error) {
	_, _, a, err := readDir(dir, true)
	return a, err
}

// LoadDirVerified is VerifyDir and LoadDir in one pass: the checkpoint
// and the journal are read once and the journal is scanned once, and
// that scan yields both the Audit and the records to replay. When the
// audit fails it returns VerifyDir's Audit and error and no state;
// otherwise the snapshot and Data are exactly LoadDir's. Verified
// recovery (stl.RecoverDirWith) opens directories through it.
func LoadDirVerified(dir string) (*Snapshot, Data, *Audit, error) {
	return readDir(dir, true)
}

// LoadDir reads the checkpoint/journal pair from a journal directory, as
// left by a crash (or a clean shutdown): the checkpoint if present, and
// the journal's parsed records — already filtered by the generation
// rule, so d.Records is exactly the sequence to replay on top of the
// snapshot. Either file may be absent; both absent is an error.
//
// Damage inside the journal's sealed region surfaces as a *CorruptError
// even here, checkpoint or not: LoadDir is lenient only about crash
// signatures (torn tails, a half-written header under a valid
// checkpoint, a stale pre-checkpoint generation), never about bytes the
// log had already sealed.
func LoadDir(dir string) (*Snapshot, Data, error) {
	snap, d, _, err := readDir(dir, false)
	return snap, d, err
}

// LoadDirWorkers is LoadDir; workers is ignored. It is kept only for
// bench/ladder.go.
func LoadDirWorkers(dir string, workers int) (*Snapshot, Data, error) { return LoadDir(dir) }

// readDir is the one directory reader behind VerifyDir, LoadDir and
// LoadDirVerified. It reads the checkpoint and the journal once, scans
// the journal at most once, and returns the Audit beside the state to
// replay. verify selects VerifyDir's strictness: an unreadable
// checkpoint, or an unreadable journal header with no checkpoint to fall
// back on, is a *CorruptError, and the checkpoint⇄journal pairing is
// checked before the scan. Without it the reader is LoadDir's, which
// cannot see the pairing and reports those two cases as plain errors. A
// file in another format version is refused by name in both modes. On
// error the Audit holds what was established before the failure.
func readDir(dir string, verify bool) (*Snapshot, Data, *Audit, error) {
	a := &Audit{Dir: dir}

	snap, ckptCRC, err := readCheckpointFile(CheckpointPath(dir))
	if err != nil {
		if verify {
			err = &CorruptError{File: CheckpointFile, Segment: -1, Offset: -1,
				Reason: fmt.Sprintf("unreadable checkpoint: %v", err)}
		}
		return nil, Data{}, a, err
	}
	if snap != nil {
		a.HasCheckpoint = true
		a.CheckpointGeneration = snap.Generation
		a.Mappings = len(snap.Mappings)
	}

	raw, err := os.ReadFile(JournalPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		if snap == nil {
			return nil, Data{}, a, fmt.Errorf("journal: %s has neither checkpoint nor journal", dir)
		}
		return snap, Data{Generation: snap.Generation}, a, nil
	}
	if err != nil {
		return nil, Data{}, a, err
	}
	a.HasJournal = true

	gen, _, headerCRC, herr := unmarshalHeader(raw)
	if herr != nil {
		// Another format version is not a torn header: refuse it before
		// the fallback below could drop it as one.
		if errors.Is(herr, errFormat) {
			if verify {
				herr = &CorruptError{File: JournalFile, Segment: -1, Offset: 0, Reason: herr.Error()}
			}
			return nil, Data{}, a, herr
		}
		if findSealFrom(raw, 0) >= 0 {
			return nil, Data{}, a, &CorruptError{File: JournalFile, Segment: 0, Offset: 0,
				Reason: "damaged header ahead of sealed content"}
		}
		if snap == nil {
			if verify {
				herr = &CorruptError{File: JournalFile, Segment: -1, Offset: 0,
					Reason: fmt.Sprintf("unreadable header with no checkpoint to fall back on: %v", herr)}
			}
			return nil, Data{}, a, herr
		}
		// Indistinguishable from a crash mid-rebirth (truncate done,
		// header write torn): the checkpoint is the durable truth and
		// recovery treats this journal as empty and torn. Report, don't
		// fail.
		a.TailTorn = true
		return snap, Data{Generation: snap.Generation, Torn: true}, a, nil
	}
	a.Generation = gen

	if snap != nil && gen <= snap.Generation {
		// Stale generation from before the checkpoint: subsumed, never
		// replayed, so its content — damaged or not — is irrelevant.
		a.Stale = true
		return snap, Data{Generation: gen}, a, nil
	}

	// Pairing: the live journal must have been born from the checkpoint.
	if verify {
		var reason string
		switch {
		case snap == nil && headerCRC != 0:
			reason = fmt.Sprintf("journal pairs with checkpoint CRC %08x but no checkpoint exists", headerCRC)
		case snap != nil && gen != snap.Generation+1:
			reason = fmt.Sprintf("journal generation %d does not succeed checkpoint generation %d",
				gen, snap.Generation)
		case snap != nil && headerCRC != ckptCRC:
			reason = fmt.Sprintf("journal pairs with checkpoint CRC %08x, the checkpoint's is %08x",
				headerCRC, ckptCRC)
		}
		if reason != "" {
			return nil, Data{}, a, &CorruptError{File: JournalFile, Segment: -1, Offset: -1, Reason: reason}
		}
	}

	// The header is whole, so every scan error is a *CorruptError.
	d, err := ScanBytes(raw)
	if err != nil {
		return nil, Data{}, a, err
	}
	a.Segments = d.Seals
	a.SealedRecords = d.Sealed
	a.TailRecords = int64(len(d.Records)) - d.Sealed
	a.TailTorn = d.Torn
	return snap, d, a, nil
}
