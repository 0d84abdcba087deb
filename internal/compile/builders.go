package compile

import (
	"sti/internal/btree"
	"sti/internal/ram"
	"sti/internal/rtl"
	"sti/internal/tuple"
	"sti/internal/value"
)

// This file holds the generic typed builders: each returns a closure that
// captures the concrete B-tree instance(s) and sub-closures, so execution
// performs no dispatch at all. The generated dispatch_gen.go instantiates
// them per arity; keys convert through tuple.Words by value (K's
// FromWords/ToWords), so the closures' fixed-size buffers stay on the stack.

// bindKey writes key k into a tuple slot.
func bindKey[K tuple.FixedKey[K]](k K, slot tuple.Tuple) {
	w := k.ToWords()
	copy(slot, w[:])
}

func makeScanBT[K tuple.FixedKey[K]](tree *btree.Tree[K], tid int32, body opFn) opFn {
	return func(r *rt) {
		it := tree.Iter()
		slot := r.tuples[tid]
		for {
			k, ok := it.Next()
			if !ok {
				return
			}
			bindKey(k, slot)
			body(r)
		}
	}
}

// rangeBT evaluates the bound prefix of a search and returns the iterator
// over its matches: the unbound positions range over the whole domain.
func rangeBT[K tuple.FixedKey[K]](r *rt, tree *btree.Tree[K], pat []exprFn, arity int32) btree.Iter[K] {
	var lo, hi tuple.Words
	for i, p := range pat {
		v := p(r)
		lo[i] = v
		hi[i] = v
	}
	for i := int32(len(pat)); i < arity; i++ {
		hi[i] = ^value.Value(0)
	}
	var k K
	return tree.Range(k.FromWords(lo), k.FromWords(hi))
}

func makeIndexScanBT[K tuple.FixedKey[K]](tree *btree.Tree[K], tid, arity int32, pat []exprFn, body opFn) opFn {
	return func(r *rt) {
		it := rangeBT(r, tree, pat, arity)
		slot := r.tuples[tid]
		for {
			k, ok := it.Next()
			if !ok {
				return
			}
			bindKey(k, slot)
			body(r)
		}
	}
}

func makeInsertBT[K tuple.FixedKey[K]](impls []any, orders []tuple.Order, arity int32, exprs []exprFn) opFn {
	trees := make([]*btree.Tree[K], len(impls))
	for i, impl := range impls {
		trees[i] = impl.(*btree.Tree[K])
	}
	return func(r *rt) {
		var src, enc tuple.Words
		for i, e := range exprs {
			src[i] = e(r)
		}
		var k K
		for i, tree := range trees {
			orders[i].Encode(enc[:arity], src[:arity])
			tree.Insert(k.FromWords(enc))
		}
	}
}

func makeExistsBT[K tuple.FixedKey[K]](tree *btree.Tree[K], arity int32, pat []exprFn) condFn {
	switch {
	case len(pat) == int(arity):
		return func(r *rt) bool {
			var key tuple.Words
			for i, p := range pat {
				key[i] = p(r)
			}
			var k K
			return tree.Contains(k.FromWords(key))
		}
	case len(pat) == 0:
		return func(*rt) bool { return tree.Size() > 0 }
	default:
		return func(r *rt) bool {
			it := rangeBT(r, tree, pat, arity)
			_, ok := it.Next()
			return ok
		}
	}
}

func makeAggregateBT[K tuple.FixedKey[K]](tree *btree.Tree[K], kind ram.AggKind, typ value.Type, tid, arity int32, pat []exprFn, cond condFn, target exprFn, body opFn) opFn {
	return func(r *rt) {
		r.tuples[tid] = r.base[tid]
		var it btree.Iter[K]
		if len(pat) == 0 {
			it = tree.Iter()
		} else {
			it = rangeBT(r, tree, pat, arity)
		}
		slot := r.tuples[tid]
		var acc rtl.AggAcc
		acc.Init(kind, typ)
		for {
			k, ok := it.Next()
			if !ok {
				break
			}
			bindKey(k, slot)
			if cond != nil && !cond(r) {
				continue
			}
			var v value.Value
			if target != nil {
				v = target(r)
			}
			acc.Step(v)
		}
		if res, ok := acc.Finish(); ok {
			r.tuples[tid] = tuple.Tuple{res}
			body(r)
		}
	}
}
