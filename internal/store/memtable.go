package store

import (
	"sti/internal/btree"
	"sti/internal/tuple"
)

// memtable is a table's newest level: the keys written since the last
// flush, each with its op. It is ordered at all times, so lookups, cursors,
// flushes and sampling never sort. newMemtable (memtable_gen.go) picks one
// instantiation per key width, over the fixed-arity key types the relation
// layer's B-tree indexes use: one ordered structure serves both tiers.
type memtable interface {
	// get reports the op recorded for the key held in w, if any.
	get(w tuple.Words) (op byte, ok bool)
	// put records op for the key held in w and returns the op it replaced,
	// if any.
	put(w tuple.Words, op byte) (prev byte, had bool)
	// len is the number of recorded keys, live and tombstoned.
	len() int
	// reset empties the level.
	reset()
	// iter returns an ascending iterator over the recorded keys >= the key
	// held in lo. A write to the level invalidates it.
	iter(lo tuple.Words) memIter
	// separators returns up to n-1 ascending keys that split the live keys
	// into roughly equal ranges.
	separators(n int) [][]byte
}

// memIter walks a memtable level in ascending key order.
type memIter interface {
	// peek returns the current key and op, or ok=false when exhausted. The
	// key is valid until the first peek after the next advance.
	peek() (key []byte, op byte, ok bool)
	// advance moves to the next key.
	advance()
}

// memTree is the memtable of one key width: two disjoint B-trees over the
// arity's fixed key type, one of live keys and one of tombstones.
type memTree[K tuple.FixedKey[K]] struct {
	live, dels btree.Tree[K]
	arity      int
}

func newMemTree[K tuple.FixedKey[K]](arity int) *memTree[K] {
	return &memTree[K]{arity: arity}
}

func (m *memTree[K]) get(w tuple.Words) (byte, bool) {
	var k K
	k = k.FromWords(w)
	if m.live.Contains(k) {
		return opSet, true
	}
	if m.dels.Contains(k) {
		return opDel, true
	}
	return 0, false
}

func (m *memTree[K]) put(w tuple.Words, op byte) (byte, bool) {
	var k K
	k = k.FromWords(w)
	if op == opSet {
		if !m.live.Insert(k) {
			return opSet, true
		}
		if m.dels.Remove(k) {
			return opDel, true
		}
		return 0, false
	}
	if !m.dels.Insert(k) {
		return opDel, true
	}
	if m.live.Remove(k) {
		return opSet, true
	}
	return 0, false
}

func (m *memTree[K]) len() int { return m.live.Size() + m.dels.Size() }

func (m *memTree[K]) reset() {
	m.live.Clear()
	m.dels.Clear()
}

func (m *memTree[K]) iter(lo tuple.Words) memIter {
	var k K
	k = k.FromWords(lo)
	it := &memTreeIter[K]{live: m.live.Seek(k), dels: m.dels.Seek(k), arity: m.arity}
	it.lk, it.lok = it.live.Next()
	it.dk, it.dok = it.dels.Next()
	it.advance()
	return it
}

func (m *memTree[K]) separators(n int) [][]byte {
	var out [][]byte
	for _, k := range m.live.SeparatorKeys(n) {
		w := k.ToWords()
		out = append(out, tuple.EncodedKey(w[:m.arity]))
	}
	return out
}

// memTreeIter merges the live and tombstone trees, which never share a key.
type memTreeIter[K tuple.FixedKey[K]] struct {
	live, dels btree.Iter[K]
	lk, dk     K // next unmerged key of each tree
	lok, dok   bool
	head       K
	op         byte
	ok         bool // head is valid
	encoded    bool // buf holds head
	arity      int
	buf        [tuple.MaxArity * tuple.KeyWidth]byte
}

func (it *memTreeIter[K]) advance() {
	it.encoded = false
	switch {
	case it.lok && (!it.dok || it.lk.Cmp(it.dk) < 0):
		it.head, it.op, it.ok = it.lk, opSet, true
		it.lk, it.lok = it.live.Next()
	case it.dok:
		it.head, it.op, it.ok = it.dk, opDel, true
		it.dk, it.dok = it.dels.Next()
	default:
		it.ok = false
	}
}

func (it *memTreeIter[K]) peek() ([]byte, byte, bool) {
	if !it.ok {
		return nil, 0, false
	}
	if !it.encoded {
		w := it.head.ToWords()
		tuple.AppendKey(it.buf[:0], w[:it.arity])
		it.encoded = true
	}
	return it.buf[:tuple.KeySize(it.arity)], it.op, true
}

// memSource streams a memtable level to the segment writer in key order.
type memSource struct {
	it       memIter
	dropDels bool
}

func (m *memSource) next() ([]byte, byte, bool) {
	for {
		key, op, ok := m.it.peek()
		if !ok {
			return nil, 0, false
		}
		m.it.advance()
		if m.dropDels && op == opDel {
			continue
		}
		return key, op, true
	}
}
