package disk

import (
	"math"
	"time"

	"smrseek/internal/geom"
)

// TimeModel approximates the cost of an access from its seek distance and
// transfer size, following the paper's qualitative description (§III):
//
//   - very short seeks (within ShortSeekSectors) cost only the rotational
//     delay of skipping the intervening sectors, i.e. their transfer time;
//   - longer seeks pay a head-move time that grows from MinHeadMove to
//     MaxHeadMove with the square root of distance (the classic
//     acceleration-limited seek curve) plus an average half-rotation;
//   - a *backward* short seek is a missed rotation: a full rotation is
//     lost backing up to the preceding sector, which is exactly the cost
//     the look-behind prefetcher avoids (§IV-B).
//
// The defaults model a 7200 RPM drive (8.33 ms rotation) with 150 MB/s
// sustained transfer.
type TimeModel struct {
	RotationTime  time.Duration // one full platter rotation
	MinHeadMove   time.Duration // shortest track-to-track move
	MaxHeadMove   time.Duration // full-stroke move
	FullStroke    int64         // sectors spanned by a full-stroke seek
	TransferBytes float64       // sustained bytes per second
	ShortSeek     int64         // sectors reachable without a head move
}

// DefaultTimeModel returns parameters for a generic 7200 RPM SMR drive.
func DefaultTimeModel() TimeModel {
	return TimeModel{
		RotationTime:  8333 * time.Microsecond,
		MinHeadMove:   1 * time.Millisecond,
		MaxHeadMove:   25 * time.Millisecond,
		FullStroke:    int64(14e12 / geom.SectorSize), // ~14 TB device
		TransferBytes: 150e6,
		ShortSeek:     2048, // 1 MB: roughly a couple of tracks
	}
}

// TransferTime returns the time to transfer n sectors.
func (m TimeModel) TransferTime(sectors int64) time.Duration {
	if sectors <= 0 {
		return 0
	}
	sec := float64(sectors) * geom.SectorSize / m.TransferBytes
	return time.Duration(sec * float64(time.Second))
}

// SeekTime returns the positioning cost of a seek of the given signed
// sector distance. A zero distance is free.
func (m TimeModel) SeekTime(distance int64) time.Duration {
	if distance == 0 {
		return 0
	}
	d := abs64(distance)
	if d <= m.ShortSeek {
		if distance < 0 {
			// Missed rotation: back up by waiting a full turn.
			return m.RotationTime
		}
		// Skip forward under rotation: pay the skipped transfer time.
		return m.TransferTime(d)
	}
	// Head move grows with sqrt(distance), clamped to the full stroke,
	// plus an average half rotation of latency.
	frac := math.Sqrt(float64(d) / float64(m.FullStroke))
	if frac > 1 {
		frac = 1
	}
	move := time.Duration(float64(m.MinHeadMove) + frac*float64(m.MaxHeadMove-m.MinHeadMove))
	return move + m.RotationTime/2
}

// AccessTime returns the full cost of an access: seek plus transfer.
func (m TimeModel) AccessTime(a Access) time.Duration {
	var t time.Duration
	if a.Seeked {
		t += m.SeekTime(a.Distance)
	}
	return t + m.TransferTime(a.Extent.Count)
}

// TimeAccumulator is an Observer that totals modelled service time.
type TimeAccumulator struct {
	Model TimeModel

	ReadTime  time.Duration
	WriteTime time.Duration
	SeekTime  time.Duration
}

// NewTimeAccumulator returns an accumulator using the given model.
func NewTimeAccumulator(m TimeModel) *TimeAccumulator {
	return &TimeAccumulator{Model: m}
}

// ObserveAccess implements Observer.
func (t *TimeAccumulator) ObserveAccess(a Access) {
	cost := t.Model.AccessTime(a)
	if a.Seeked {
		t.SeekTime += t.Model.SeekTime(a.Distance)
	}
	if a.Kind == Read {
		t.ReadTime += cost
	} else {
		t.WriteTime += cost
	}
}

// Total returns read + write modelled time.
func (t *TimeAccumulator) Total() time.Duration { return t.ReadTime + t.WriteTime }
