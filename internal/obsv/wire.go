package obsv

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"smrseek/internal/core"
	"smrseek/internal/disk"
)

// Binary wire format: an 8-byte magic header followed by fixed-size
// 35-byte records, little-endian:
//
//	off 0  kind  uint8  (evOp..evSummary)
//	off 1  sub   uint8  (disk.OpKind, core.MechKind or core.JournalKind)
//	off 2  flags uint8  (flag* bits)
//	off 3  op    int64  (0-based trace operation index)
//	off 11 a     int64  \
//	off 19 b     int64   kind-specific payload words
//	off 27 c     int64  /
//
// The format is versioned through the magic; an incompatible change
// bumps the trailing byte.
var magic = [8]byte{'S', 'M', 'R', 'T', 'R', 'C', 0, 2}

const recordSize = 3 + 4*8

// Record kinds.
const (
	evOp      = uint8(iota + 1) // sub=OpKind a=Lba.Start b=Lba.Count c=Frags
	evAccess                    // sub=OpKind a=Extent.Start b=Extent.Count c=Distance
	evMech                      // sub=MechKind a=Sectors
	evJournal                   // sub=JournalKind a=Dur(ns)
	evSummary                   // a=WAF bits b=CheckpointAge
)

// Access flag bits.
const (
	flagSeeked      = uint8(1 << iota) // the I/O seeked
	flagMaintenance                    // background maintenance I/O
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// record encodes and writes one binary record.
func (t *Tracer) record(kind, sub, flags uint8, op, a, b, c int64) {
	if t.err != nil {
		return
	}
	buf := t.buf[:]
	buf[0], buf[1], buf[2] = kind, sub, flags
	binary.LittleEndian.PutUint64(buf[3:], uint64(op))
	binary.LittleEndian.PutUint64(buf[11:], uint64(a))
	binary.LittleEndian.PutUint64(buf[19:], uint64(b))
	binary.LittleEndian.PutUint64(buf[27:], uint64(c))
	_, t.err = t.w.Write(buf)
}

// Replay reads a binary trace and accumulates the recorded run's Stats.
// The returned Stats match the live run's bit for bit — every counter
// the simulator tracks is either derivable from the per-event stream or
// carried by the trailing summary records — except Stats.Config, which
// describes the live configuration and is zero here.
func Replay(r io.Reader) (core.Stats, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return core.Stats{}, fmt.Errorf("obsv: reading trace header: %w", err)
	}
	if hdr != magic {
		return core.Stats{}, fmt.Errorf("obsv: not a smrseek binary trace (bad magic %q)", hdr[:])
	}

	var (
		st  core.Stats
		buf [recordSize]byte
	)
	st.WAF = 1 // a run without a trailing summary is an untranslated one
	for n := int64(0); ; n++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF {
				break
			}
			return core.Stats{}, fmt.Errorf("obsv: trace record %d: %w", n, err)
		}
		kind, sub, flags := buf[0], buf[1], buf[2]
		a := int64(binary.LittleEndian.Uint64(buf[11:]))
		b := int64(binary.LittleEndian.Uint64(buf[19:]))
		c := int64(binary.LittleEndian.Uint64(buf[27:]))
		switch kind {
		case evOp:
			if disk.OpKind(sub) == disk.Read {
				st.Reads++
				st.TotalFragments += c
				if int(c) > st.MaxFragments {
					st.MaxFragments = int(c)
				}
				if c > 1 {
					st.FragmentedReads++
				}
			} else {
				st.Writes++
			}
		case evAccess:
			replayAccess(&st.Disk, disk.OpKind(sub), flags, b, c)
		case evMech:
			replayMech(&st, core.MechKind(sub), a)
		case evJournal:
			switch core.JournalKind(sub) {
			case core.JournalAppend:
				st.Durability.JournalAppends++
			case core.JournalAppendFailure:
				st.Durability.AppendFailures++
			case core.JournalCheckpoint:
				st.Durability.Checkpoints++
			case core.JournalCrash:
				st.Durability.Crashed = true
			}
		case evSummary:
			st.WAF = math.Float64frombits(uint64(a))
			st.Durability.CheckpointAge = b
		default:
			return core.Stats{}, fmt.Errorf("obsv: trace record %d: unknown kind %d", n, kind)
		}
	}
	return st, nil
}

// replayAccess mirrors disk.Disk.Do's counter updates exactly: ops,
// seeks and sectors per I/O, the long-seek split at
// disk.LongSeekSectors.
func replayAccess(cs *disk.Counters, kind disk.OpKind, flags uint8, count, distance int64) {
	if count <= 0 {
		return // Do ignores empty extents entirely
	}
	seeked := flags&flagSeeked != 0
	long := false
	if d := distance; seeked {
		if d < 0 {
			d = -d
		}
		long = d > disk.LongSeekSectors
	}
	switch kind {
	case disk.Read:
		cs.ReadOps++
		cs.ReadSectors += count
		if seeked {
			cs.ReadSeeks++
			if long {
				cs.LongReadSeeks++
			}
		}
	case disk.Write:
		cs.WriteOps++
		cs.WriteSectors += count
		if seeked {
			cs.WriteSeeks++
			if long {
				cs.LongWriteSeeks++
			}
		}
	}
}

func replayMech(st *core.Stats, kind core.MechKind, n int64) {
	switch kind {
	case core.MechCacheHit:
		st.CacheHits++
	case core.MechCacheMiss:
		st.CacheMisses++
	case core.MechCacheInvalidate:
		st.CacheInvalidations += n
	case core.MechPrefetchHit:
		st.PrefetchHits++
	case core.MechDefragWriteback:
		st.DefragWritebacks++
		st.DefragSectors += n
	case core.MechMaintRead:
		st.MaintReads++
		st.MaintSectors += n
	case core.MechMaintWrite:
		st.MaintWrites++
		st.MaintSectors += n
	}
}
