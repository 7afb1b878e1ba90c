package core

import (
	"slices"

	"smrseek/internal/geom"
)

// extIndex files the selective cache's keys by LBA, so that a write
// finds the entries it overlaps without testing every key. The LBA space
// is cut into fixed buckets of 1<<bucketShift sectors; each key is filed
// under every bucket its extent touches, and a write searches only the
// buckets it touches itself. Cached keys overlap one another (fragments
// of different reads), so they cannot live in the disjoint,
// hole-punching extmap.Map.
//
// A bucket that empties leaves the map, and its storage waits on a spare
// list for the next new bucket: live memory follows the live keys, and a
// warm index does not allocate.
//
// The index holds exactly the LRU's keys. SelectiveCache keeps the two
// in step; the index itself knows nothing about recency or capacity.
type extIndex struct {
	buckets map[int64][]extKey
	spare   [][]extKey
}

// bucketShift sets the bucket width to 256 sectors. Catalog fragments
// are shorter than 512 sectors, so a key spans at most three buckets.
const bucketShift = 8

// bucketSpan returns the first and last bucket of the non-empty e.
func bucketSpan(e geom.Extent) (first, last int64) {
	return e.Start >> bucketShift, (e.End() - 1) >> bucketShift
}

// insert files k, which must not be present, under each of its buckets.
func (t *extIndex) insert(k extKey) {
	first, last := bucketSpan(k.extent())
	for b := first; b <= last; b++ {
		keys, ok := t.buckets[b]
		if !ok && len(t.spare) > 0 {
			keys = t.spare[len(t.spare)-1]
			t.spare = t.spare[:len(t.spare)-1]
		}
		t.buckets[b] = append(keys, k)
	}
}

// remove deletes k, if present, from each of its buckets.
func (t *extIndex) remove(k extKey) {
	first, last := bucketSpan(k.extent())
	for b := first; b <= last; b++ {
		keys := t.buckets[b]
		i := slices.Index(keys, k)
		if i < 0 {
			return // a key is filed in all of its buckets or in none
		}
		keys[i] = keys[len(keys)-1]
		if keys = keys[:len(keys)-1]; len(keys) == 0 {
			delete(t.buckets, b)
			t.spare = append(t.spare, keys)
		} else {
			t.buckets[b] = keys
		}
	}
}

// appendOverlapping appends every key overlapping the non-empty q to dst,
// each once: a key is reported from the first bucket it shares with q.
// A write wider than the index has buckets visits the live buckets
// instead of its own: the wire admits writes of any length, and this
// bounds their cost by the index's size.
func (t *extIndex) appendOverlapping(dst []extKey, q geom.Extent) []extKey {
	first, last := bucketSpan(q)
	visit := func(b int64, keys []extKey) {
		for _, k := range keys {
			if k.extent().Overlaps(q) && max(first, k.start>>bucketShift) == b {
				dst = append(dst, k)
			}
		}
	}
	if last-first >= int64(len(t.buckets)) {
		for b, keys := range t.buckets {
			if first <= b && b <= last {
				visit(b, keys)
			}
		}
		return dst
	}
	for b := first; b <= last; b++ {
		visit(b, t.buckets[b])
	}
	return dst
}
