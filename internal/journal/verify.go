package journal

import (
	"errors"
	"fmt"
	"os"
)

// Sentinel errors distinguishing the two ways a journal can be damaged.
// A torn tail is a crash signature: recovery truncates to the verified
// prefix and continues. Corruption is damage inside the region the seal
// chain has committed: recovering past it would silently drop or mutate
// acknowledged history, so it must fail loudly.
var (
	// ErrCorrupt marks damage inside the sealed region — a flipped bit in
	// a sealed record, a broken seal, a checkpoint that does not anchor
	// the journal. Wrapped by *CorruptError; match with errors.Is.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrTornTail marks an incomplete tail record — the expected residue
	// of a crash mid-append. Recovery to the preceding prefix is safe.
	ErrTornTail = errors.New("journal: torn tail")
	// ErrUnsealed is returned by Prove for a record not yet covered by a
	// seal: its segment has not filled yet.
	ErrUnsealed = errors.New("journal: record not yet sealed")
)

// CorruptError reports where verification failed: which file, which
// segment was being checked, and the byte offset of the damage (or -1
// when the damage is not localizable to an offset, e.g. a checkpoint
// whose chain disagrees with the journal anchor).
type CorruptError struct {
	// File is the damaged file's name within the journal directory
	// (JournalFile or CheckpointFile).
	File string `json:"file"`
	// Segment is the 0-based seal segment being verified when the damage
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
// JSON-serializable for the wire protocol and smrverify's -json mode.
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
	// Anchor is the journal header's seal-chain anchor; ChainHead is the
	// chain after the last verified seal (equal to Anchor when nothing is
	// sealed).
	Anchor    Hash `json:"anchor"`
	ChainHead Hash `json:"chain_head"`
	// Segments are the verified seals in order.
	Segments []Seal `json:"segments"`
	// SealedRecords counts records covered by Segments; TailRecords
	// counts CRC-valid records past the last seal (acknowledged but not
	// yet sealed — they carry no integrity guarantee beyond their CRC).
	SealedRecords int64 `json:"sealed_records"`
	TailRecords   int64 `json:"tail_records"`
	// TailTorn reports a torn (crash-truncated) record at the very end,
	// after every seal. Torn is recoverable; it is not corruption.
	TailTorn bool `json:"tail_torn"`
}

// VerifyDir audits a journal directory without replaying it: it checks
// every frame CRC, recomputes every segment's Merkle root and the seal
// chain, and checks the checkpoint⇄journal linkage (the journal's
// anchor must be the checkpoint's chain head; a journal with no
// checkpoint must anchor at zero). It returns a *CorruptError (matching
// ErrCorrupt) for damage inside the sealed history, and a nil error for
// a clean pair — including one with a torn tail or a stale journal,
// which the Audit reports but which are crash signatures, not damage.
// Segment verification runs on DefaultRecoveryWorkers workers; use
// VerifyDirWorkers to pick the count.
func VerifyDir(dir string) (*Audit, error) { return VerifyDirWorkers(dir, 0) }

// VerifyDirWorkers is VerifyDir with an explicit verification worker
// count: sealed segments are CRC-checked and Merkle-verified on a
// bounded pool while the seal chain and checkpoint linkage are checked
// in order, with the Audit and error bit-identical to the sequential
// scan at any worker count. workers <= 0 uses DefaultRecoveryWorkers, 1
// verifies inline on the calling goroutine.
func VerifyDirWorkers(dir string, workers int) (*Audit, error) {
	_, _, a, err := readDir(dir, workers, true)
	return a, err
}

// LoadDirVerified is VerifyDirWorkers and LoadDirWorkers in one pass:
// the checkpoint and the journal are read once and the journal is
// scanned once, and that scan yields both the Audit and the records to
// replay. When the audit fails it returns VerifyDirWorkers's Audit and
// error and no state; otherwise the snapshot and Data are exactly
// LoadDirWorkers's. Verified recovery (stl.RecoverDirWith) opens
// directories through it.
func LoadDirVerified(dir string, workers int) (*Snapshot, Data, *Audit, error) {
	return readDir(dir, workers, true)
}

// readDir is the one directory reader behind VerifyDir, LoadDirWorkers and
// LoadDirVerified. It reads the checkpoint and the journal once, scans
// the journal at most once, and returns the Audit beside the state to
// replay. verify selects VerifyDir's strictness: an unreadable
// checkpoint, or an unreadable journal header with no checkpoint to fall
// back on, is a *CorruptError, and the checkpoint⇄journal linkage is
// checked before the scan. Without it the reader is LoadDirWorkers', which
// cannot see linkage and reports those two cases as plain errors. On
// error the Audit holds what was established before the failure.
func readDir(dir string, workers int, verify bool) (*Snapshot, Data, *Audit, error) {
	a := &Audit{Dir: dir}

	snap, err := ReadCheckpointFile(CheckpointPath(dir))
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
		a.ChainHead = snap.Chain
		a.Anchor = snap.Chain
		return snap, Data{Generation: snap.Generation}, a, nil
	}
	if err != nil {
		return nil, Data{}, a, err
	}
	a.HasJournal = true

	gen, _, anchor, herr := unmarshalHeader(raw)
	if herr != nil {
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
		a.Anchor = snap.Chain
		a.ChainHead = snap.Chain
		return snap, Data{Generation: snap.Generation, Torn: true}, a, nil
	}
	a.Generation = gen
	a.Anchor = anchor

	if snap != nil && gen <= snap.Generation {
		// Stale generation from before the checkpoint: subsumed, never
		// replayed, so its content — damaged or not — is irrelevant.
		a.Stale = true
		a.ChainHead = snap.Chain
		return snap, Data{Generation: gen}, a, nil
	}

	// Linkage: the live journal must descend from the checkpoint.
	if verify {
		var reason string
		switch {
		case snap == nil && !anchor.IsZero():
			reason = fmt.Sprintf("journal anchors at %s but no checkpoint exists", anchor.Short())
		case snap != nil && gen != snap.Generation+1:
			reason = fmt.Sprintf("journal generation %d does not succeed checkpoint generation %d",
				gen, snap.Generation)
		case snap != nil && anchor != snap.Chain:
			reason = fmt.Sprintf("journal anchor %s does not match checkpoint chain head %s",
				anchor.Short(), snap.Chain.Short())
		}
		if reason != "" {
			return nil, Data{}, a, &CorruptError{File: JournalFile, Segment: -1, Offset: -1, Reason: reason}
		}
	}

	// The header is whole, so every scan error is a *CorruptError.
	d, err := ScanBytesWorkers(raw, workers)
	if err != nil {
		return nil, Data{}, a, err
	}
	a.Segments = d.Seals
	a.SealedRecords = d.Sealed
	a.TailRecords = int64(len(d.Records)) - d.Sealed
	a.TailTorn = d.Torn
	a.ChainHead = d.ChainHead()
	return snap, d, a, nil
}
