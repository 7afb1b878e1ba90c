package core

import "smrseek/internal/geom"

// extIndex is the LBA-ordered index over the selective cache's keys: an
// AVL tree ordered by (start, count) in which every node also carries
// the largest extent end found in its subtree. Cached keys overlap one
// another (fragments of different reads), so this is an augmented
// interval tree rather than the disjoint, hole-punching extmap.Map —
// but in extmap's idiom: nodes come from slabs, are recycled through a
// freelist, and nothing here consults a clock or a random source.
//
// The index holds exactly the LRU's keys. SelectiveCache keeps the two
// in step; the index itself knows nothing about recency or capacity.
type extIndex struct {
	root *idxNode
	n    int
	// free is the node freelist, threaded through idxNode.right and
	// refilled in slabs of idxSlabSize.
	free *idxNode
}

type idxNode struct {
	key         extKey
	maxEnd      geom.Sector // largest key end in this subtree
	left, right *idxNode
	height      int
}

// idxSlabSize is how many nodes one freelist refill allocates at once.
const idxSlabSize = 64

func (k extKey) end() geom.Sector { return k.start + k.count }

// less orders keys by start, then by length: distinct keys never tie.
func (k extKey) less(o extKey) bool {
	return k.start < o.start || (k.start == o.start && k.count < o.count)
}

func idxHeight(n *idxNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

// idxUpdate recomputes n's height and max-end from its children.
func idxUpdate(n *idxNode) *idxNode {
	n.height = 1 + max(idxHeight(n.left), idxHeight(n.right))
	n.maxEnd = n.key.end()
	if n.left != nil {
		n.maxEnd = max(n.maxEnd, n.left.maxEnd)
	}
	if n.right != nil {
		n.maxEnd = max(n.maxEnd, n.right.maxEnd)
	}
	return n
}

func idxRotateRight(y *idxNode) *idxNode {
	x := y.left
	y.left = x.right
	x.right = y
	idxUpdate(y)
	return idxUpdate(x)
}

func idxRotateLeft(x *idxNode) *idxNode {
	y := x.right
	x.right = y.left
	y.left = x
	idxUpdate(x)
	return idxUpdate(y)
}

func idxBalance(n *idxNode) *idxNode {
	idxUpdate(n)
	switch bf := idxHeight(n.left) - idxHeight(n.right); {
	case bf > 1:
		if idxHeight(n.left.left) < idxHeight(n.left.right) {
			n.left = idxRotateLeft(n.left)
		}
		return idxRotateRight(n)
	case bf < -1:
		if idxHeight(n.right.right) < idxHeight(n.right.left) {
			n.right = idxRotateRight(n.right)
		}
		return idxRotateLeft(n)
	}
	return n
}

// newNode takes a node from the freelist, refilling it with a fresh slab
// when empty.
func (t *extIndex) newNode(k extKey) *idxNode {
	if t.free == nil {
		slab := make([]idxNode, idxSlabSize)
		for i := range slab[:len(slab)-1] {
			slab[i].right = &slab[i+1]
		}
		t.free = &slab[0]
	}
	n := t.free
	t.free = n.right
	*n = idxNode{key: k, maxEnd: k.end(), height: 1}
	return n
}

// recycle returns a detached node to the freelist.
func (t *extIndex) recycle(n *idxNode) {
	*n = idxNode{right: t.free}
	t.free = n
}

// insert adds k, which must not be present.
func (t *extIndex) insert(k extKey) {
	t.root = t.ins(t.root, k)
	t.n++
}

func (t *extIndex) ins(n *idxNode, k extKey) *idxNode {
	if n == nil {
		return t.newNode(k)
	}
	if k.less(n.key) {
		n.left = t.ins(n.left, k)
	} else {
		n.right = t.ins(n.right, k)
	}
	return idxBalance(n)
}

// remove deletes k if present.
func (t *extIndex) remove(k extKey) {
	var removed bool
	t.root, removed = t.del(t.root, k)
	if removed {
		t.n--
	}
}

func (t *extIndex) del(n *idxNode, k extKey) (*idxNode, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch {
	case k.less(n.key):
		n.left, removed = t.del(n.left, k)
	case n.key.less(k):
		n.right, removed = t.del(n.right, k)
	default:
		removed = true
		if n.left == nil {
			r := n.right
			t.recycle(n)
			return r, true
		}
		if n.right == nil {
			l := n.left
			t.recycle(n)
			return l, true
		}
		// Replace with the successor; the recursion recycles the
		// successor's node when it bottoms out in a case above.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.key = succ.key
		n.right, _ = t.del(n.right, succ.key)
	}
	return idxBalance(n), removed
}

// overlapping returns some key overlapping q. The descent is the
// textbook interval-tree search: a left subtree whose max-end reaches
// past q.Start either holds an overlap or proves — through the interval
// that ends there yet starts at or after q.End() — that nothing to its
// right overlaps either, so one root-to-leaf path decides.
func (t *extIndex) overlapping(q geom.Extent) (extKey, bool) {
	for n := t.root; n != nil && n.maxEnd > q.Start; {
		switch {
		case n.key.extent().Overlaps(q):
			return n.key, true
		case n.left != nil && n.left.maxEnd > q.Start:
			n = n.left
		case n.key.start >= q.End():
			return extKey{}, false // everything to the right starts later still
		default:
			n = n.right
		}
	}
	return extKey{}, false
}
