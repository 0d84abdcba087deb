package interp

import (
	"sti/internal/brie"
	"sti/internal/btree"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Sharded specialized instructions. A sharded relation has no single concrete
// tree, so the plain specialized opcodes (specialized.go) cannot bind it —
// but it does have one concrete tree *per shard*, all of the same type. These
// forms bind the whole per-shard slice at generation time (inode.impls) plus
// the partition-key position (inode.b: the encoded key position for scans and
// existence checks, the source key column for inserts), and route with one
// hash at runtime:
//
//   - When the search prefix covers the key, exactly one shard can hold
//     matches, and the instruction runs the unsharded static loop on that
//     shard's tree. This is the common case by construction: the shard plan
//     keys each relation on its most-bound column.
//   - When it does not, the instruction visits shards back to back. Shard
//     order (not globally sorted order) is observationally equivalent for
//     scans — a scan's result set does not depend on enumeration order, and
//     the order-sensitive instructions (choice, aggregate over floats) stay
//     on the dynamic adapter, whose k-way merge preserves sorted order.
//
// The opcode block extends the generated per-arity layout: op = base + arity-1.
const (
	opShardedBase   opcode = opIndexAggregateBT16 + 1
	opInsertShBT    opcode = opShardedBase
	opExistsShBT    opcode = opShardedBase + 16
	opScanShBT      opcode = opShardedBase + 32
	opIndexScanShBT opcode = opShardedBase + 48

	opInsertShBrie    opcode = opShardedBase + 64
	opScanShBrie      opcode = opShardedBase + 65
	opIndexScanShBrie opcode = opShardedBase + 66
	opExistsShBrie    opcode = opShardedBase + 67
)

// shardedOp maps a generic opcode to its sharded specialized form for the
// given representation and arity.
func shardedOp(generic opcode, rep relation.Rep, arity int) (opcode, bool) {
	switch rep {
	case relation.BTree:
		if arity < 1 || arity > relation.MaxArity {
			return 0, false
		}
		switch generic {
		case opInsert:
			return opInsertShBT + opcode(arity-1), true
		case opExists:
			return opExistsShBT + opcode(arity-1), true
		case opScan:
			return opScanShBT + opcode(arity-1), true
		case opIndexScan:
			return opIndexScanShBT + opcode(arity-1), true
		}
	case relation.Brie:
		switch generic {
		case opInsert:
			return opInsertShBrie, true
		case opScan:
			return opScanShBrie, true
		case opIndexScan:
			return opIndexScanShBrie, true
		case opExists:
			return opExistsShBrie, true
		}
	}
	return 0, false
}

// evalInsertShBT routes a freshly built tuple to its owning shard by the
// source key column and inserts it into that shard of every index. The impls
// slice is laid out index-major: impls[i*shards+s] is index i's shard s.
func evalInsertShBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var src, enc tuple.Words
	ex.fillTuple(n, ctx, src[:n.arity])
	if ex.stageInsert(n, ctx, src[:n.arity]) {
		return 0
	}
	shards := len(n.impls) / len(n.orders)
	sh := relation.ShardOf(src[n.b], shards)
	added := false
	var k K
	for i, ord := range n.orders {
		ord.Encode(enc[:n.arity], src[:n.arity])
		if n.impls[i*shards+sh].(*btree.Tree[K]).Insert(k.FromWords(enc)) && i == 0 {
			added = true
		}
	}
	ex.countInsert(ctx, added)
	if n.rstats != nil {
		n.rstats.CountInsert(added)
	}
	return 0
}

func evalExistsShBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var pat tuple.Words
	ex.fillTuple(n, ctx, pat[:n.prefix])
	if n.b < n.prefix {
		tree := n.impls[relation.ShardOf(pat[n.b], len(n.impls))].(*btree.Tree[K])
		if n.prefix == n.arity {
			var k K
			return boolVal(tree.Contains(k.FromWords(pat)))
		}
		it := btRangeTree(tree, n, &pat)
		_, ok := it.Next()
		return boolVal(ok)
	}
	for _, impl := range n.impls {
		tree := impl.(*btree.Tree[K])
		if n.prefix == 0 {
			if tree.Size() > 0 {
				return 1
			}
			continue
		}
		it := btRangeTree(tree, n, &pat)
		if _, ok := it.Next(); ok {
			return 1
		}
	}
	return 0
}

func evalScanShBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	for _, impl := range n.impls {
		it := impl.(*btree.Tree[K]).Iter()
		for {
			k, ok := it.Next()
			if !ok {
				break
			}
			bindKey(n, ctx, k)
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	}
	return 0
}

func evalIndexScanShBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var pat tuple.Words
	ex.fillTuple(n, ctx, pat[:n.prefix])
	if n.b < n.prefix {
		tree := n.impls[relation.ShardOf(pat[n.b], len(n.impls))].(*btree.Tree[K])
		it := btRangeTree(tree, n, &pat)
		for {
			k, ok := it.Next()
			if !ok {
				return 0
			}
			bindKey(n, ctx, k)
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	}
	for _, impl := range n.impls {
		it := btRangeTree(impl.(*btree.Tree[K]), n, &pat)
		for {
			k, ok := it.Next()
			if !ok {
				break
			}
			bindKey(n, ctx, k)
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	}
	return 0
}

// execShardedBrie handles the handwritten sharded forms of the brie, which is
// not arity-generic.
func (ex *executor) execShardedBrie(n *inode, ctx *context) (value.Value, bool) {
	switch n.op {
	case opInsertShBrie:
		var src, enc [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, src[:n.arity])
		if ex.stageInsert(n, ctx, src[:n.arity]) {
			return 0, true
		}
		shards := len(n.impls) / len(n.orders)
		sh := relation.ShardOf(src[n.b], shards)
		added := false
		for i, ord := range n.orders {
			ord.Encode(enc[:n.arity], src[:n.arity])
			if n.impls[i*shards+sh].(*brie.Trie).Insert(enc[:n.arity]) && i == 0 {
				added = true
			}
		}
		ex.countInsert(ctx, added)
		if n.rstats != nil {
			n.rstats.CountInsert(added)
		}
		return 0, true

	case opScanShBrie, opIndexScanShBrie:
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		slot := ctx.tuples[n.tupleID]
		impls := n.impls
		if n.b < n.prefix {
			sh := relation.ShardOf(pat[n.b], len(n.impls))
			impls = n.impls[sh : sh+1]
		}
		for _, impl := range impls {
			it := impl.(*brie.Trie).Prefix(pat[:n.prefix])
			for {
				t, ok := it.Next()
				if !ok {
					break
				}
				if n.decode {
					n.order.Decode(slot, t)
				} else {
					copy(slot, t)
				}
				ex.countIter(ctx)
				ex.eval(n.nested, ctx)
			}
		}
		return 0, true

	case opExistsShBrie:
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		if n.b < n.prefix {
			trie := n.impls[relation.ShardOf(pat[n.b], len(n.impls))].(*brie.Trie)
			if n.prefix == n.arity {
				return boolVal(trie.Contains(pat[:n.arity])), true
			}
			return boolVal(trie.HasPrefix(pat[:n.prefix])), true
		}
		for _, impl := range n.impls {
			if impl.(*brie.Trie).HasPrefix(pat[:n.prefix]) {
				return 1, true
			}
		}
		return 0, true
	}
	return 0, false
}

// execSharded dispatches the sharded specialized opcodes; returns
// (result, handled).
func (ex *executor) execSharded(n *inode, ctx *context) (value.Value, bool) {
	if n.op >= opInsertShBrie {
		return ex.execShardedBrie(n, ctx)
	}
	switch n.op {
	case opInsertShBT + 0:
		return evalInsertShBT[relation.Tup1](ex, n, ctx), true
	case opInsertShBT + 1:
		return evalInsertShBT[relation.Tup2](ex, n, ctx), true
	case opInsertShBT + 2:
		return evalInsertShBT[relation.Tup3](ex, n, ctx), true
	case opInsertShBT + 3:
		return evalInsertShBT[relation.Tup4](ex, n, ctx), true
	case opInsertShBT + 4:
		return evalInsertShBT[relation.Tup5](ex, n, ctx), true
	case opInsertShBT + 5:
		return evalInsertShBT[relation.Tup6](ex, n, ctx), true
	case opInsertShBT + 6:
		return evalInsertShBT[relation.Tup7](ex, n, ctx), true
	case opInsertShBT + 7:
		return evalInsertShBT[relation.Tup8](ex, n, ctx), true
	case opInsertShBT + 8:
		return evalInsertShBT[relation.Tup9](ex, n, ctx), true
	case opInsertShBT + 9:
		return evalInsertShBT[relation.Tup10](ex, n, ctx), true
	case opInsertShBT + 10:
		return evalInsertShBT[relation.Tup11](ex, n, ctx), true
	case opInsertShBT + 11:
		return evalInsertShBT[relation.Tup12](ex, n, ctx), true
	case opInsertShBT + 12:
		return evalInsertShBT[relation.Tup13](ex, n, ctx), true
	case opInsertShBT + 13:
		return evalInsertShBT[relation.Tup14](ex, n, ctx), true
	case opInsertShBT + 14:
		return evalInsertShBT[relation.Tup15](ex, n, ctx), true
	case opInsertShBT + 15:
		return evalInsertShBT[relation.Tup16](ex, n, ctx), true

	case opExistsShBT + 0:
		return evalExistsShBT[relation.Tup1](ex, n, ctx), true
	case opExistsShBT + 1:
		return evalExistsShBT[relation.Tup2](ex, n, ctx), true
	case opExistsShBT + 2:
		return evalExistsShBT[relation.Tup3](ex, n, ctx), true
	case opExistsShBT + 3:
		return evalExistsShBT[relation.Tup4](ex, n, ctx), true
	case opExistsShBT + 4:
		return evalExistsShBT[relation.Tup5](ex, n, ctx), true
	case opExistsShBT + 5:
		return evalExistsShBT[relation.Tup6](ex, n, ctx), true
	case opExistsShBT + 6:
		return evalExistsShBT[relation.Tup7](ex, n, ctx), true
	case opExistsShBT + 7:
		return evalExistsShBT[relation.Tup8](ex, n, ctx), true
	case opExistsShBT + 8:
		return evalExistsShBT[relation.Tup9](ex, n, ctx), true
	case opExistsShBT + 9:
		return evalExistsShBT[relation.Tup10](ex, n, ctx), true
	case opExistsShBT + 10:
		return evalExistsShBT[relation.Tup11](ex, n, ctx), true
	case opExistsShBT + 11:
		return evalExistsShBT[relation.Tup12](ex, n, ctx), true
	case opExistsShBT + 12:
		return evalExistsShBT[relation.Tup13](ex, n, ctx), true
	case opExistsShBT + 13:
		return evalExistsShBT[relation.Tup14](ex, n, ctx), true
	case opExistsShBT + 14:
		return evalExistsShBT[relation.Tup15](ex, n, ctx), true
	case opExistsShBT + 15:
		return evalExistsShBT[relation.Tup16](ex, n, ctx), true

	case opScanShBT + 0:
		return evalScanShBT[relation.Tup1](ex, n, ctx), true
	case opScanShBT + 1:
		return evalScanShBT[relation.Tup2](ex, n, ctx), true
	case opScanShBT + 2:
		return evalScanShBT[relation.Tup3](ex, n, ctx), true
	case opScanShBT + 3:
		return evalScanShBT[relation.Tup4](ex, n, ctx), true
	case opScanShBT + 4:
		return evalScanShBT[relation.Tup5](ex, n, ctx), true
	case opScanShBT + 5:
		return evalScanShBT[relation.Tup6](ex, n, ctx), true
	case opScanShBT + 6:
		return evalScanShBT[relation.Tup7](ex, n, ctx), true
	case opScanShBT + 7:
		return evalScanShBT[relation.Tup8](ex, n, ctx), true
	case opScanShBT + 8:
		return evalScanShBT[relation.Tup9](ex, n, ctx), true
	case opScanShBT + 9:
		return evalScanShBT[relation.Tup10](ex, n, ctx), true
	case opScanShBT + 10:
		return evalScanShBT[relation.Tup11](ex, n, ctx), true
	case opScanShBT + 11:
		return evalScanShBT[relation.Tup12](ex, n, ctx), true
	case opScanShBT + 12:
		return evalScanShBT[relation.Tup13](ex, n, ctx), true
	case opScanShBT + 13:
		return evalScanShBT[relation.Tup14](ex, n, ctx), true
	case opScanShBT + 14:
		return evalScanShBT[relation.Tup15](ex, n, ctx), true
	case opScanShBT + 15:
		return evalScanShBT[relation.Tup16](ex, n, ctx), true

	case opIndexScanShBT + 0:
		return evalIndexScanShBT[relation.Tup1](ex, n, ctx), true
	case opIndexScanShBT + 1:
		return evalIndexScanShBT[relation.Tup2](ex, n, ctx), true
	case opIndexScanShBT + 2:
		return evalIndexScanShBT[relation.Tup3](ex, n, ctx), true
	case opIndexScanShBT + 3:
		return evalIndexScanShBT[relation.Tup4](ex, n, ctx), true
	case opIndexScanShBT + 4:
		return evalIndexScanShBT[relation.Tup5](ex, n, ctx), true
	case opIndexScanShBT + 5:
		return evalIndexScanShBT[relation.Tup6](ex, n, ctx), true
	case opIndexScanShBT + 6:
		return evalIndexScanShBT[relation.Tup7](ex, n, ctx), true
	case opIndexScanShBT + 7:
		return evalIndexScanShBT[relation.Tup8](ex, n, ctx), true
	case opIndexScanShBT + 8:
		return evalIndexScanShBT[relation.Tup9](ex, n, ctx), true
	case opIndexScanShBT + 9:
		return evalIndexScanShBT[relation.Tup10](ex, n, ctx), true
	case opIndexScanShBT + 10:
		return evalIndexScanShBT[relation.Tup11](ex, n, ctx), true
	case opIndexScanShBT + 11:
		return evalIndexScanShBT[relation.Tup12](ex, n, ctx), true
	case opIndexScanShBT + 12:
		return evalIndexScanShBT[relation.Tup13](ex, n, ctx), true
	case opIndexScanShBT + 13:
		return evalIndexScanShBT[relation.Tup14](ex, n, ctx), true
	case opIndexScanShBT + 14:
		return evalIndexScanShBT[relation.Tup15](ex, n, ctx), true
	case opIndexScanShBT + 15:
		return evalIndexScanShBT[relation.Tup16](ex, n, ctx), true
	}
	return 0, false
}
