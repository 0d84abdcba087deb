// Code generated by cmd/genspecialized; DO NOT EDIT.

package compile

import (
	"fmt"

	"sti/internal/btree"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

func badImpl(impl any) string {
	return fmt.Sprintf("compile: unsupported B-tree instance %T", impl)
}

func buildScanBT(impl any, tid int32, body opFn) opFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup2]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup3]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup4]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup5]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup6]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup7]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup8]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup9]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup10]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup11]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup12]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup13]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup14]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup15]:
		return makeScanBT(tree, tid, body)
	case *btree.Tree[relation.Tup16]:
		return makeScanBT(tree, tid, body)
	}
	panic(badImpl(impl))
}

func buildIndexScanBT(impl any, tid, arity int32, pat []exprFn, body opFn) opFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup2]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup3]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup4]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup5]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup6]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup7]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup8]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup9]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup10]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup11]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup12]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup13]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup14]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup15]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	case *btree.Tree[relation.Tup16]:
		return makeIndexScanBT(tree, tid, arity, pat, body)
	}
	panic(badImpl(impl))
}

func buildInsertBT(impls []any, orders []tuple.Order, arity int32, exprs []exprFn) opFn {
	switch impls[0].(type) {
	case *btree.Tree[relation.Tup1]:
		return makeInsertBT[relation.Tup1](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup2]:
		return makeInsertBT[relation.Tup2](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup3]:
		return makeInsertBT[relation.Tup3](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup4]:
		return makeInsertBT[relation.Tup4](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup5]:
		return makeInsertBT[relation.Tup5](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup6]:
		return makeInsertBT[relation.Tup6](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup7]:
		return makeInsertBT[relation.Tup7](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup8]:
		return makeInsertBT[relation.Tup8](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup9]:
		return makeInsertBT[relation.Tup9](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup10]:
		return makeInsertBT[relation.Tup10](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup11]:
		return makeInsertBT[relation.Tup11](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup12]:
		return makeInsertBT[relation.Tup12](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup13]:
		return makeInsertBT[relation.Tup13](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup14]:
		return makeInsertBT[relation.Tup14](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup15]:
		return makeInsertBT[relation.Tup15](impls, orders, arity, exprs)
	case *btree.Tree[relation.Tup16]:
		return makeInsertBT[relation.Tup16](impls, orders, arity, exprs)
	}
	panic(badImpl(impls[0]))
}

func buildExistsBT(impl any, arity int32, pat []exprFn) condFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup2]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup3]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup4]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup5]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup6]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup7]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup8]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup9]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup10]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup11]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup12]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup13]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup14]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup15]:
		return makeExistsBT(tree, arity, pat)
	case *btree.Tree[relation.Tup16]:
		return makeExistsBT(tree, arity, pat)
	}
	panic(badImpl(impl))
}

func buildAggregateBT(impl any, kind ram.AggKind, typ value.Type, tid, arity int32, pat []exprFn, cond condFn, target exprFn, body opFn) opFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup2]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup3]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup4]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup5]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup6]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup7]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup8]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup9]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup10]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup11]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup12]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup13]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup14]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup15]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	case *btree.Tree[relation.Tup16]:
		return makeAggregateBT(tree, kind, typ, tid, arity, pat, cond, target, body)
	}
	panic(badImpl(impl))
}
