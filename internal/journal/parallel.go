package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
)

// The journal frame walker, shared by every reader of journal bytes.
// Sealed segments are independently verifiable by construction — each
// seal frame carries the Merkle root over exactly the records since the
// previous seal — so the expensive per-segment work (CRC32 of every
// frame, SHA-256 of every leaf, the segment's Merkle tree) can run on a
// bounded worker pool while a single in-order applier does the only
// inherently sequential parts: the seal chain links and record
// accumulation. The same insight lets SMORE parallelize its
// segment-granular recovery scans.
//
// The pipeline has three stages:
//
//  1. Structure scan (sequential, cheap): hop frame-to-frame by length
//     prefix alone — no CRC, no hashing — splitting the stream into
//     per-segment jobs delimited by seal-candidate frames, plus one
//     unsealed-tail job. Structural damage (partial or implausible
//     frames) stops the split; its reason is settled in stage 3.
//  2. Workers (parallel, expensive): each job independently CRC-checks
//     its frames, decodes records, hashes leaves, computes the segment
//     Merkle root and checks it against the seal frame's payload.
//     Damage is reported with its offset and reason, plus the records
//     decoded before it.
//  3. Applier (sequential): consumes job results strictly in job order,
//     extends and checks the seal chain (one SHA-256 per segment),
//     accumulates records and seals into Data, and applies
//     first-error-wins: the lowest-offset damage decides the outcome
//     regardless of which worker found what first.
//
// The walk (behind recovery, VerifyDir and Log.Open) starts after the
// header at its anchor; its caller classifies damage as a torn tail or
// corruption (forward resync via findSealFrom). With one worker it runs
// inline on the calling goroutine. At every worker count the result is
// bit-identical — same Data, same errors,
// byte for byte and field for field — to the independent sequential
// scanner kept as a test oracle, which parallel_test.go enforces with a
// differential corruption matrix.

// DefaultRecoveryWorkers is the worker count used when a caller passes
// workers <= 0: one per schedulable CPU.
func DefaultRecoveryWorkers() int { return runtime.GOMAXPROCS(0) }

// segJob is one verification work unit: the byte range of a segment's
// record frames plus its closing seal-candidate frame (sealOff < 0 for
// the unsealed tail job, whose range holds record frames only).
type segJob struct {
	start   int64 // first frame offset
	end     int64 // just past the last frame (seal frame, for segments)
	sealOff int64 // offset of the seal-candidate frame, -1 for the tail
	index   int   // 0-based seal index this job would seal as
}

// segDamage is a frame that failed verification inside one job.
type segDamage struct {
	off    int64
	reason string
	// broken marks a CRC-valid seal frame whose content disagrees with
	// the records it covers: always corruption, never a crash artifact.
	broken bool
}

// segResult is one job's outcome. records holds every record decoded
// before the damage point (all of them when damage is nil).
type segResult struct {
	records []Record
	leaves  []Hash
	damage  *segDamage
	// Seal-candidate payload fields (valid when damage is nil and
	// sealOff >= 0).
	root      Hash // recomputed Merkle root over leaves
	sealChain Hash // chain value the seal frame claims
}

// structStop records where the structure scan had to stop: a frame that
// is structurally damaged (reason != "") or structurally foreign
// (oddLen >= 0) — the latter needs a CRC check to pick between the
// "frame checksum mismatch" and "unrecognized N-byte frame" reasons.
type structStop struct {
	off    int64
	reason string
	oddLen int64
}

// structScan splits raw's frames after the header into verification
// jobs without touching a single checksum. It stops at the first
// structurally implausible frame; everything before it is jobs.
func structScan(raw []byte) (jobs []segJob, stop *structStop) {
	end := int64(len(raw))
	off := int64(headerSize)
	segStart := off
	// Record frames ahead of the stop point still need verification — they
	// are accumulated (and damage among them, at a lower offset, wins over
	// the structural stop), so emit them as a final tail job before
	// reporting the stop.
	stopAt := func(s *structStop) ([]segJob, *structStop) {
		if segStart < s.off {
			jobs = append(jobs, segJob{start: segStart, end: s.off, sealOff: -1, index: len(jobs)})
		}
		return jobs, s
	}
	for off < end {
		if end-off < 4 {
			return stopAt(&structStop{off: off, reason: "partial length prefix", oddLen: -1})
		}
		plen := int64(binary.LittleEndian.Uint32(raw[off:]))
		if plen == 0 || plen > maxPayloadLen {
			return stopAt(&structStop{off: off, reason: fmt.Sprintf("implausible frame length %d", plen), oddLen: -1})
		}
		next := off + 4 + plen + 4
		if next > end {
			return stopAt(&structStop{off: off, reason: "partial frame", oddLen: -1})
		}
		switch {
		case plen == payloadSize:
			// A record frame; it extends the open segment.
		case plen == sealPayloadSize && raw[off+4] == byte(RecSeal):
			jobs = append(jobs, segJob{start: segStart, end: next, sealOff: off, index: len(jobs)})
			segStart = next
		default:
			// Structurally whole but neither a record nor a seal shape:
			// the walk stops here, with the reason decided by the frame's
			// CRC. Defer that check to the applier.
			return stopAt(&structStop{off: off, oddLen: plen})
		}
		off = next
	}
	if segStart < end {
		jobs = append(jobs, segJob{start: segStart, end: end, sealOff: -1, index: len(jobs)})
	}
	return jobs, nil
}

// verifyJob runs one job: CRC every frame, decode records, hash leaves,
// and (for segment jobs) recompute the Merkle root and check it against
// the seal payload. The checks run in frame order, so the first failing
// one names the reason and offset.
func verifyJob(raw []byte, job segJob) segResult {
	var res segResult
	if n := (job.end - job.start) / frameSize; n > 0 {
		res.records = make([]Record, 0, n)
		res.leaves = make([]Hash, 0, n)
	}
	damaged := func(off int64, reason string) segResult {
		res.damage = &segDamage{off: off, reason: reason}
		return res
	}
	for off := job.start; off < job.end; {
		plen := int64(binary.LittleEndian.Uint32(raw[off:]))
		next := off + 4 + plen + 4
		payload := raw[off+4 : off+4+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[off+4+plen:]) {
			return damaged(off, "frame checksum mismatch")
		}
		if off == job.sealOff {
			idx, cnt, root, sealChain, ok := parseSealPayload(payload)
			if !ok {
				return damaged(off, "malformed seal payload")
			}
			// The idx/cnt/root checks only bind when every earlier
			// segment verified — exactly the case in which the applier
			// uses this result.
			if int(idx) != job.index {
				res.damage = &segDamage{off: off, broken: true,
					reason: fmt.Sprintf("seal index %d, want %d", idx, job.index)}
				return res
			}
			if int(cnt) != len(res.leaves) {
				res.damage = &segDamage{off: off, broken: true,
					reason: fmt.Sprintf("seal covers %d records, %d are pending", cnt, len(res.leaves))}
				return res
			}
			if got := MerkleRoot(res.leaves); got != root {
				res.damage = &segDamage{off: off, broken: true,
					reason: fmt.Sprintf("segment root %s, sealed %s", got.Short(), root.Short())}
				return res
			}
			res.root, res.sealChain = root, sealChain
			return res
		}
		rec, ok := unmarshalPayload(payload)
		if !ok {
			return damaged(off, "unreplayable record")
		}
		res.records = append(res.records, rec)
		res.leaves = append(res.leaves, LeafHash(payload))
		off = next
	}
	return res
}

// walk is the pipeline over raw's frames after the header: structure
// scan, verifyJob per job (on a pool of workers goroutines when workers
// > 1, inline otherwise; <= 0 means DefaultRecoveryWorkers), and the
// in-order applier, which extends the seal chain from chain. It appends the verified records and seals to d and
// returns the lowest-offset damage, or nil when every frame verified —
// an unsealed tail of records included — plus, when wantLeaves is set,
// every accumulated record's leaf hash in order. Classifying the damage
// is the caller's business.
func walk(raw []byte, chain Hash, workers int, wantLeaves bool, d *Data) (leaves []Hash, _ *segDamage) {
	jobs, stop := structScan(raw)
	if workers <= 0 {
		workers = DefaultRecoveryWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// next(i) yields job i's result. Inline (workers <= 1) it just runs
	// the job; parallel, workers pull jobs off an atomic cursor — so one
	// long segment cannot serialize the rest — and results[i] becomes
	// valid once done[i] closes. The applier consumes strictly in index
	// order either way.
	next := func(i int) segResult { return verifyJob(raw, jobs[i]) }
	if workers > 1 {
		results := make([]segResult, len(jobs))
		done := make([]chan struct{}, len(jobs))
		for i := range done {
			done[i] = make(chan struct{})
		}
		var cursor, stopFlag atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(jobs) || stopFlag.Load() != 0 {
						return
					}
					results[i] = verifyJob(raw, jobs[i])
					close(done[i])
				}
			}()
		}
		// The applier may stop early on damage; tell the workers and wait
		// them out so no goroutine outlives the call.
		defer func() {
			stopFlag.Store(1)
			wg.Wait()
		}()
		next = func(i int) segResult { <-done[i]; return results[i] }
	}

	// In-order applier: chain links, accumulation, first-error-wins.
	for i, job := range jobs {
		res := next(i)
		d.Records = append(d.Records, res.records...)
		if wantLeaves {
			leaves = append(leaves, res.leaves...)
		}
		if res.damage != nil {
			return leaves, res.damage
		}
		if job.sealOff < 0 {
			break // unsealed tail: records only, always the last job
		}
		if want := chainLink(chain, res.root); want != res.sealChain {
			return leaves, &segDamage{off: job.sealOff, broken: true,
				reason: fmt.Sprintf("chain %s, sealed %s", want.Short(), res.sealChain.Short())}
		}
		chain = res.sealChain
		cnt := len(res.records)
		d.Seals = append(d.Seals, Seal{
			Index: job.index, First: d.Sealed + 1, Count: cnt,
			Root: res.root, Chain: res.sealChain, Offset: job.sealOff,
		})
		d.Sealed += int64(cnt)
	}
	if stop == nil {
		return leaves, nil
	}
	reason := stop.reason
	if stop.oddLen >= 0 {
		// A structurally foreign frame: the reason depends on whether its
		// CRC happens to hold.
		payload := raw[stop.off+4 : stop.off+4+stop.oddLen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[stop.off+4+stop.oddLen:]) {
			reason = "frame checksum mismatch"
		} else {
			reason = fmt.Sprintf("unrecognized %d-byte frame", stop.oddLen)
		}
	}
	return leaves, &segDamage{off: stop.off, reason: reason}
}

// scanJournalParallel parses and verifies a whole journal file: the
// header, then walk from its anchor. workers <= 0 means
// DefaultRecoveryWorkers; 1 runs the whole pipeline inline on the
// calling goroutine. A damaged frame followed by no further intact seal
// marks Data.Torn — the crash signature; any other damage is a
// *CorruptError (truncating there would silently drop acknowledged,
// sealed history). When wantLeaves is set the verified records' leaf
// hashes are returned in order so Log.Open and Log.Prove can reuse the
// audit core's hashing instead of redoing it.
func scanJournalParallel(raw []byte, workers int, wantLeaves bool) (Data, []Hash, error) {
	var d Data
	if len(raw) < headerSize {
		return d, nil, fmt.Errorf("journal: short header (%d bytes)", len(raw))
	}
	gen, frontier, anchor, err := unmarshalHeader(raw)
	if err != nil {
		// A crash mid-rebirth (truncate done, header write torn) leaves a
		// SHORT file: nothing but partial header bytes. A damaged header
		// with sealed content after it is not that — it is damage to a
		// file that was whole.
		if findSealFrom(raw, 0) >= 0 {
			return d, nil, &CorruptError{File: JournalFile, Segment: 0, Offset: 0,
				Reason: "damaged header ahead of sealed content"}
		}
		return d, nil, err
	}
	d.Generation, d.InitFrontier, d.Anchor = gen, frontier, anchor

	leaves, dm := walk(raw, anchor, workers, wantLeaves, &d)
	switch {
	case dm == nil:
		return d, leaves, nil
	case dm.broken:
		return d, nil, &CorruptError{File: JournalFile, Segment: len(d.Seals), Offset: dm.off, Reason: dm.reason}
	case findSealFrom(raw, dm.off) >= 0:
		return d, nil, &CorruptError{File: JournalFile, Segment: len(d.Seals), Offset: dm.off,
			Reason: dm.reason + " (intact seal follows the damage)"}
	}
	d.Torn = true
	return d, nil, nil
}

// ScanBytesWorkers parses raw journal file bytes with the walker
// recovery runs: every frame CRC checked, every seal's Merkle root and
// chain link recomputed. A damaged frame followed by no further intact
// seal marks Data.Torn; damage inside the sealed region is a
// *CorruptError. Sealed segments are verified on a bounded worker pool
// while an in-order applier checks the seal chain, with results — Data
// and errors alike — bit-identical at every worker count. workers <= 0
// uses DefaultRecoveryWorkers, 1 runs inline.
func ScanBytesWorkers(raw []byte, workers int) (Data, error) {
	d, _, err := scanJournalParallel(raw, workers, false)
	return d, err
}
