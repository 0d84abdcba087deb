package btree

// maxHeight bounds the height of any tree. Every node below the root holds
// at least degree-1 keys and internal ones at least degree children, so a
// tree of height h holds at least 2·degree^(h-1) − 1 keys: height 16 would
// need 2^46 keys, more than a 48-bit address space can hold at four bytes
// each. The bound lets an iterator keep its descent path inline.
const maxHeight = 16

// Iter is a forward in-order iterator, optionally bounded above. The zero
// value is an exhausted iterator. Iterators are invalidated by any mutation
// of the tree they traverse.
//
// The descent path lives in fixed arrays sized by maxHeight, so creating,
// seeking and advancing an iterator never allocates.
type Iter[K Key[K]] struct {
	nodes   [maxHeight]*node[K]
	pos     [maxHeight]int8 // next key index within nodes[d]
	depth   int             // frames in use
	hi      K
	bounded bool
	hiExcl  *K // exclusive upper bound for partitioned scans
}

// Iter returns an iterator over all keys in ascending order.
func (t *Tree[K]) Iter() Iter[K] {
	var it Iter[K]
	it.pushLeft(t.root)
	return it
}

// Seek returns an iterator positioned at the first key >= lo.
func (t *Tree[K]) Seek(lo K) Iter[K] {
	var it Iter[K]
	it.seek(t.root, lo)
	return it
}

// Range returns an iterator over keys k with lo <= k <= hi.
func (t *Tree[K]) Range(lo, hi K) Iter[K] {
	it := t.Seek(lo)
	it.hi = hi
	it.bounded = true
	return it
}

// push appends a frame for nd positioned at key index i.
func (it *Iter[K]) push(nd *node[K], i int) {
	it.nodes[it.depth] = nd
	it.pos[it.depth] = int8(i)
	it.depth++
}

// pushLeft descends to the leftmost position of the subtree rooted at nd.
func (it *Iter[K]) pushLeft(nd *node[K]) {
	for nd != nil {
		it.push(nd, 0)
		if nd.leaf() {
			return
		}
		nd = nd.children[0]
	}
}

// seek builds the traversal path so that Next yields keys >= lo in order.
func (it *Iter[K]) seek(nd *node[K], lo K) {
	for nd != nil {
		i, _ := nd.find(lo)
		it.push(nd, i)
		if nd.leaf() {
			return
		}
		nd = nd.children[i]
	}
}

// Next returns the next key, or ok=false when the iterator is exhausted or
// the next key exceeds the upper bound.
func (it *Iter[K]) Next() (K, bool) {
	for it.depth > 0 {
		d := it.depth - 1
		nd, i := it.nodes[d], int(it.pos[d])
		if i < int(nd.n) {
			k := nd.keys[i]
			if (it.bounded && k.Cmp(it.hi) > 0) || (it.hiExcl != nil && k.Cmp(*it.hiExcl) >= 0) {
				it.depth = 0
				var zero K
				return zero, false
			}
			it.pos[d]++
			if !nd.leaf() {
				it.pushLeft(nd.children[i+1])
			}
			return k, true
		}
		it.depth--
	}
	var zero K
	return zero, false
}
