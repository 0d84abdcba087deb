package main

import (
	"bytes"
	"fmt"
)

// genInterp emits the interpreter's specialized instruction set: for each
// B-tree arity, opcode constants and dispatch cases that bind the concrete
// tree type statically (paper §4.1, Figs 8-11). The emitted helpers are
// called from the interpreter's switch; each helper type-asserts the
// concrete *btree.Tree[TupN] once and then runs allocation-free with
// fixed-size array tuples and concrete iterators, converting keys through
// TupN's own FromWords/ToWords methods.
func genInterp() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/genspecialized; DO NOT EDIT.

package interp

import (
	"sti/internal/relation"
	"sti/internal/value"
)

// Specialized opcode block. Opcodes are laid out so that
// op = opBase + arity - 1, letting the tree generator compute them directly.
const (
`)
	ops := []string{"InsertBT", "ExistsBT", "ScanBT", "IndexScanBT", "ChoiceBT", "IndexChoiceBT", "AggregateBT", "IndexAggregateBT"}
	first := true
	for _, op := range ops {
		for n := 1; n <= maxArity; n++ {
			if first {
				fmt.Fprintf(&b, "\top%s%d opcode = iota + opSpecializedBase\n", op, n)
				first = false
			} else {
				fmt.Fprintf(&b, "\top%s%d\n", op, n)
			}
		}
	}
	b.WriteString(")\n\n")

	// Base-opcode lookup tables used by the tree generator.
	b.WriteString("// specializedOp maps a generic opcode and arity to its specialized form.\nfunc specializedOp(generic opcode, arity int) (opcode, bool) {\n\tif arity < 1 || arity > relation.MaxArity {\n\t\treturn 0, false\n\t}\n\tswitch generic {\n")
	pairs := [][2]string{
		{"opInsert", "opInsertBT1"},
		{"opExists", "opExistsBT1"},
		{"opScan", "opScanBT1"},
		{"opIndexScan", "opIndexScanBT1"},
		{"opChoice", "opChoiceBT1"},
		{"opIndexChoice", "opIndexChoiceBT1"},
		{"opAggregate", "opAggregateBT1"},
		{"opIndexAggregate", "opIndexAggregateBT1"},
	}
	for _, p := range pairs {
		fmt.Fprintf(&b, "\tcase %s:\n\t\treturn %s + opcode(arity-1), true\n", p[0], p[1])
	}
	b.WriteString("\t}\n\treturn 0, false\n}\n\n")

	// The dispatch cases, one per op x arity, calling the generic helpers.
	b.WriteString(`// execSpecialized handles every specialized opcode. It is called from the
// interpreter's main switch; returns (result, handled).
func (ex *executor) execSpecialized(n *inode, ctx *context) (value.Value, bool) {
	switch n.op {
`)
	type tmpl struct {
		op     string
		helper string
	}
	tmpls := []tmpl{
		{"InsertBT", "evalInsertBT"},
		{"ExistsBT", "evalExistsBT"},
		{"ScanBT", "evalScanBT"},
		{"IndexScanBT", "evalIndexScanBT"},
		{"ChoiceBT", "evalChoiceBT"},
		{"IndexChoiceBT", "evalIndexChoiceBT"},
		{"AggregateBT", "evalAggregateBT"},
		{"IndexAggregateBT", "evalIndexAggregateBT"},
	}
	for _, t := range tmpls {
		for n := 1; n <= maxArity; n++ {
			fmt.Fprintf(&b, "\tcase op%s%d:\n\t\treturn %s[relation.Tup%d](ex, n, ctx), true\n",
				t.op, n, t.helper, n)
		}
	}
	b.WriteString(`	}
	return 0, false
}
`)
	return b.Bytes()
}
