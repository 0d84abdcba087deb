package relation

import (
	"fmt"

	"sti/internal/btree"
	"sti/internal/metrics"
	"sti/internal/tuple"
	"sti/internal/value"
)

// btreeAdapter is the dynamic adapter over a specialized B-tree instance
// (paper Fig 7). The key type K is one of the fixed-arity tuple types
// (tuple.Tup1..Tup16); the generated factory picks it by arity, and K's own
// FromWords/ToWords methods are the per-arity conversion glue.
type btreeAdapter[K tuple.FixedKey[K]] struct {
	tree  *btree.Tree[K]
	order tuple.Order
	arity int
	ops   *metrics.IndexOps
}

func newBTreeAdapter[K tuple.FixedKey[K]](order tuple.Order) *btreeAdapter[K] {
	return &btreeAdapter[K]{
		tree:  btree.New[K](),
		order: order,
		arity: len(order),
	}
}

func (a *btreeAdapter[K]) Arity() int                      { return a.arity }
func (a *btreeAdapter[K]) Rep() Rep                        { return BTree }
func (a *btreeAdapter[K]) Order() tuple.Order              { return a.order }
func (a *btreeAdapter[K]) Size() int                       { return a.tree.Size() }
func (a *btreeAdapter[K]) Clear()                          { a.tree.Clear() }
func (a *btreeAdapter[K]) impl() any                       { return a.tree }
func (a *btreeAdapter[K]) attachOps(ops *metrics.IndexOps) { a.ops = ops }

// encode re-orders a source-order tuple into its key. The conversion takes
// the buffer by value, so enc stays on the stack.
func (a *btreeAdapter[K]) encode(t tuple.Tuple) K {
	var enc tuple.Words
	a.order.Encode(enc[:a.arity], t)
	var k K
	return k.FromWords(enc)
}

// keyOf converts an encoded-order tuple to its key.
func keyOf[K tuple.FixedKey[K]](t tuple.Tuple) K {
	var w tuple.Words
	copy(w[:], t)
	var k K
	return k.FromWords(w)
}

func (a *btreeAdapter[K]) Insert(t tuple.Tuple) bool {
	added := a.tree.Insert(a.encode(t))
	if a.ops != nil {
		a.ops.Inserts.Add(1)
		if added {
			a.ops.Fresh.Add(1)
		}
	}
	return added
}

// bulkBatch is how many encoded keys an InsertAll accumulates on the stack
// before handing them to the tree's bulk entry point.
const bulkBatch = 64

func (a *btreeAdapter[K]) InsertAll(flat []value.Value, count int) int {
	var keys [bulkBatch]K
	added, kn := 0, 0
	for i := 0; i < count; i++ {
		keys[kn] = a.encode(flat[i*a.arity : (i+1)*a.arity])
		kn++
		if kn == bulkBatch {
			added += a.tree.InsertAll(keys[:kn])
			kn = 0
		}
	}
	added += a.tree.InsertAll(keys[:kn])
	if a.ops != nil {
		a.ops.Inserts.Add(uint64(count))
		a.ops.Fresh.Add(uint64(added))
	}
	return added
}

func (a *btreeAdapter[K]) Contains(t tuple.Tuple) bool {
	if a.ops != nil {
		a.ops.Lookups.Add(1)
	}
	return a.tree.Contains(a.encode(t))
}

func (a *btreeAdapter[K]) ContainsEncoded(t tuple.Tuple) bool {
	if a.ops != nil {
		a.ops.Lookups.Add(1)
	}
	return a.tree.Contains(keyOf[K](t))
}

func (a *btreeAdapter[K]) SwapContents(other Index) {
	o, ok := other.(*btreeAdapter[K])
	if !ok || !orderEq(a.order, o.order) {
		panic(fmt.Sprintf("relation: swap of incompatible indexes (%v/%d and %v/%d)",
			a.Rep(), a.arity, other.Rep(), other.Arity()))
	}
	a.tree.Swap(o.tree)
}

func (a *btreeAdapter[K]) Scan() Iterator {
	if a.ops != nil {
		a.ops.Scans.Add(1)
	}
	return newBuffered(&btreeBatch[K]{it: a.tree.Iter()}, a.arity)
}

func (a *btreeAdapter[K]) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	if a.ops != nil {
		a.ops.RangeScans.Add(1)
	}
	lo, hi := prefixBounds[K](pattern, k)
	return newBuffered(&btreeBatch[K]{it: a.tree.Range(lo, hi)}, a.arity)
}

func (a *btreeAdapter[K]) AnyMatch(pattern tuple.Tuple, k int) bool {
	if a.ops != nil {
		a.ops.Probes.Add(1)
	}
	if k == 0 {
		return a.tree.Size() > 0
	}
	lo, hi := prefixBounds[K](pattern, k)
	it := a.tree.Range(lo, hi)
	_, ok := it.Next()
	return ok
}

// PartitionScan splits the full scan at tree separator keys into up to n
// disjoint, collectively exhaustive ranges for parallel evaluation.
func (a *btreeAdapter[K]) PartitionScan(n int) []Iterator {
	if a.ops != nil {
		a.ops.Partitions.Add(1)
	}
	seps := a.tree.SeparatorKeys(n)
	if len(seps) == 0 {
		return []Iterator{a.Scan()}
	}
	var out []Iterator
	var lo *K
	for i := range seps {
		hi := seps[i]
		out = append(out, newBuffered(&btreeBatch[K]{it: a.tree.SeekBefore(lo, &hi)}, a.arity))
		lo = &seps[i]
	}
	out = append(out, newBuffered(&btreeBatch[K]{it: a.tree.SeekBefore(lo, nil)}, a.arity))
	return out
}

// btreeBatch adapts a concrete B-tree iterator to the wide batcher call.
type btreeBatch[K tuple.FixedKey[K]] struct {
	it btree.Iter[K]
}

func (s *btreeBatch[K]) nextBatch(dst []tuple.Tuple) int {
	for i := range dst {
		k, ok := s.it.Next()
		if !ok {
			return i
		}
		w := k.ToWords()
		copy(dst[i], w[:])
	}
	return len(dst)
}

// prefixBounds builds the lower and upper bound keys of a prefix search:
// encoded positions 0..k-1 carry the fixed values, the rest range over the
// whole 32-bit domain.
func prefixBounds[K tuple.FixedKey[K]](pattern tuple.Tuple, k int) (lo, hi K) {
	var lw, hw tuple.Words
	copy(lw[:], pattern[:k])
	copy(hw[:], pattern[:k])
	for i := k; i < len(hw); i++ {
		hw[i] = ^value.Value(0)
	}
	return lo.FromWords(lw), hi.FromWords(hw)
}

func orderEq(a, b tuple.Order) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
