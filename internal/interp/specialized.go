package interp

import (
	"sti/internal/brie"
	"sti/internal/btree"
	"sti/internal/eqrel"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// This file holds the bodies of the specialized instructions (paper §4.1,
// Fig 11c): generic helpers instantiated per fixed-arity key type by the
// generated dispatch in specialized_gen.go. Each helper type-asserts the
// concrete structure once, then runs with stack-allocated fixed-size tuples,
// concrete iterators, and no interface dispatch on the per-tuple path.
// Keys convert through tuple.Words by value (K's FromWords/ToWords), so the
// fixed-size buffers stay on the stack: `go build -gcflags=-m` reports no
// "moved to heap" in this file, and CI keeps it that way.

// evalInsertBT inserts a freshly built source tuple into every B-tree index
// of the relation. Under a staged query the source tuple goes to the
// worker-local buffer instead; the merge encodes per index.
func evalInsertBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var src, enc tuple.Words
	ex.fillTuple(n, ctx, src[:n.arity])
	if ex.stageInsert(n, ctx, src[:n.arity]) {
		return 0
	}
	added := false
	var k K
	for i, impl := range n.impls {
		n.orders[i].Encode(enc[:n.arity], src[:n.arity])
		if impl.(*btree.Tree[K]).Insert(k.FromWords(enc)) && i == 0 {
			added = true
		}
	}
	ex.countInsert(ctx, added)
	if n.rstats != nil {
		// The static path bypasses Relation.Insert (and its counters), so the
		// relation-level stats are bumped here.
		n.rstats.CountInsert(added)
	}
	return 0
}

// btRange prepares the concrete range iterator of a prefix search.
func btRange[K tuple.FixedKey[K]](n *inode, pat *tuple.Words) btree.Iter[K] {
	return btRangeTree(n.impls[0].(*btree.Tree[K]), n, pat)
}

// btRangeTree is btRange against an explicit tree, shared with the sharded
// instruction forms (which pick the tree by partition hash first). The
// first n.prefix words of pat are the bound values.
func btRangeTree[K tuple.FixedKey[K]](tree *btree.Tree[K], n *inode, pat *tuple.Words) btree.Iter[K] {
	if n.prefix == 0 {
		return tree.Iter()
	}
	lo, hi := *pat, *pat
	for i := n.prefix; i < n.arity; i++ {
		lo[i] = 0
		hi[i] = ^value.Value(0)
	}
	var k K
	return tree.Range(k.FromWords(lo), k.FromWords(hi))
}

func evalExistsBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	tree := n.impls[0].(*btree.Tree[K])
	var pat tuple.Words
	ex.fillTuple(n, ctx, pat[:n.prefix])
	switch {
	case n.prefix == n.arity:
		var k K
		return boolVal(tree.Contains(k.FromWords(pat)))
	case n.prefix == 0:
		return boolVal(tree.Size() > 0)
	default:
		it := btRange[K](n, &pat)
		_, ok := it.Next()
		return boolVal(ok)
	}
}

// bindKey writes key k into the context slot for n.tupleID, decoding to
// source coordinates when static reordering is off.
func bindKey[K tuple.FixedKey[K]](n *inode, ctx *context, k K) {
	w := k.ToWords()
	if n.decode {
		n.order.Decode(ctx.tuples[n.tupleID], w[:n.arity])
		return
	}
	copy(ctx.tuples[n.tupleID], w[:n.arity])
}

func evalScanBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	it := n.impls[0].(*btree.Tree[K]).Iter()
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

func evalIndexScanBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var pat tuple.Words
	ex.fillTuple(n, ctx, pat[:n.prefix])
	it := btRange[K](n, &pat)
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

func evalChoiceBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	it := n.impls[0].(*btree.Tree[K]).Iter()
	for {
		k, ok := it.Next()
		if !ok {
			return 0
		}
		bindKey(n, ctx, k)
		ex.countIter(ctx)
		if n.cond == nil || ex.eval(n.cond, ctx) != 0 {
			ex.eval(n.nested, ctx)
			return 0
		}
	}
}

func evalIndexChoiceBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var pat tuple.Words
	ex.fillTuple(n, ctx, pat[:n.prefix])
	it := btRange[K](n, &pat)
	for {
		k, ok := it.Next()
		if !ok {
			return 0
		}
		bindKey(n, ctx, k)
		ex.countIter(ctx)
		if n.cond == nil || ex.eval(n.cond, ctx) != 0 {
			ex.eval(n.nested, ctx)
			return 0
		}
	}
}

func aggBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context, it btree.Iter[K]) value.Value {
	ctx.tuples[n.tupleID] = ctx.base[n.tupleID]
	var acc aggAcc
	acc.Init(ram.AggKind(n.a), value.Type(n.b))
	for {
		k, ok := it.Next()
		if !ok {
			break
		}
		bindKey(n, ctx, k)
		ex.countIter(ctx)
		if n.cond != nil && ex.eval(n.cond, ctx) == 0 {
			continue
		}
		var v value.Value
		if n.target != nil {
			v = ex.eval(n.target, ctx)
		}
		acc.Step(v)
	}
	if res, ok := acc.Finish(); ok {
		ex.bindAggregate(n, ctx, res)
	}
	return 0
}

func evalAggregateBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	return aggBT(ex, n, ctx, n.impls[0].(*btree.Tree[K]).Iter())
}

func evalIndexAggregateBT[K tuple.FixedKey[K]](ex *executor, n *inode, ctx *context) value.Value {
	var pat tuple.Words
	ex.fillTuple(n, ctx, pat[:n.prefix])
	return aggBT(ex, n, ctx, btRange[K](n, &pat))
}

// execNonGeneric handles the handwritten specialized instructions for the
// structures that are not arity-generic: the binary equivalence relation
// and the dynamic-depth brie.
func (ex *executor) execNonGeneric(n *inode, ctx *context) (value.Value, bool) {
	switch n.op {
	case opInsertEq:
		var t [2]value.Value
		ex.fillTuple(n, ctx, t[:])
		if ex.stageInsert(n, ctx, t[:]) {
			return 0, true
		}
		rel := n.impls[0].(*eqrel.Rel)
		added := rel.Insert(t[0], t[1])
		ex.countInsert(ctx, added)
		if n.rstats != nil {
			n.rstats.CountInsert(added)
		}
		return 0, true
	case opScanEq:
		it := n.impls[0].(*eqrel.Rel).Iter()
		slot := ctx.tuples[n.tupleID]
		for {
			t, ok := it.Next()
			if !ok {
				return 0, true
			}
			copy(slot, t)
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	case opIndexScanEq:
		rel := n.impls[0].(*eqrel.Rel)
		var pat [2]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		slot := ctx.tuples[n.tupleID]
		if n.prefix == 2 {
			if rel.Contains(pat[0], pat[1]) {
				copy(slot, pat[:])
				ex.countIter(ctx)
				ex.eval(n.nested, ctx)
			}
			return 0, true
		}
		it := rel.PrefixFirst(pat[0])
		for {
			t, ok := it.Next()
			if !ok {
				return 0, true
			}
			copy(slot, t)
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	case opExistsEq:
		rel := n.impls[0].(*eqrel.Rel)
		var pat [2]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		switch n.prefix {
		case 0:
			return boolVal(rel.Size() > 0), true
		case 1:
			return boolVal(rel.Class(pat[0]) != nil), true
		default:
			return boolVal(rel.Contains(pat[0], pat[1])), true
		}

	case opInsertBrie:
		var src, enc [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, src[:n.arity])
		if ex.stageInsert(n, ctx, src[:n.arity]) {
			return 0, true
		}
		added := false
		for i, impl := range n.impls {
			n.orders[i].Encode(enc[:n.arity], src[:n.arity])
			if impl.(*brie.Trie).Insert(enc[:n.arity]) && i == 0 {
				added = true
			}
		}
		ex.countInsert(ctx, added)
		if n.rstats != nil {
			n.rstats.CountInsert(added)
		}
		return 0, true
	case opScanBrie, opIndexScanBrie:
		trie := n.impls[0].(*brie.Trie)
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		it := trie.Prefix(pat[:n.prefix])
		slot := ctx.tuples[n.tupleID]
		for {
			t, ok := it.Next()
			if !ok {
				return 0, true
			}
			if n.decode {
				n.order.Decode(slot, t)
			} else {
				copy(slot, t)
			}
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	case opExistsBrie:
		trie := n.impls[0].(*brie.Trie)
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		if n.prefix == n.arity {
			return boolVal(trie.Contains(pat[:n.arity])), true
		}
		return boolVal(trie.HasPrefix(pat[:n.prefix])), true
	}
	return 0, false
}
