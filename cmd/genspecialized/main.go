// Command genspecialized generates the per-arity specialized code that the
// paper produces with C++ macros (Figs 8-11): fixed-arity tuple key types
// with inlinable comparisons, slice<->key conversion glue, the B-tree index
// factory and the durable store's memtable factory covering arities
// 1..MaxArity, and the interpreter's specialized instruction dispatch.
//
// Run from the repository root:
//
//	go run ./cmd/genspecialized
//
// The generated files are committed; this command only needs re-running when
// the maximum arity or the instruction templates change.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

const maxArity = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("genspecialized: ")
	only := flag.String("only", "", "generate only one target: tuple | relation | store | interp | compile")
	check := flag.Bool("check", false, "verify the committed files are up to date instead of writing")
	flag.Parse()
	emit := func(path string, data []byte) {
		if *check {
			verify(path, data)
		} else {
			write(path, data)
		}
	}
	if *only == "" || *only == "tuple" {
		emit("internal/tuple/fixed_gen.go", genFixed())
	}
	if *only == "" || *only == "relation" {
		emit("internal/relation/tuples_gen.go", genTuples())
	}
	if *only == "" || *only == "store" {
		emit("internal/store/memtable_gen.go", genMemtable())
	}
	if *only == "" || *only == "interp" {
		emit("internal/interp/specialized_gen.go", genInterp())
	}
	if *only == "" || *only == "compile" {
		emit("internal/compile/dispatch_gen.go", genCompile())
	}
	log.Print("done")
}

func write(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d bytes)", path, len(data))
}

func verify(path string, want []byte) {
	got, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		log.Fatalf("%s is stale; re-run go run ./cmd/genspecialized", path)
	}
	log.Printf("%s is up to date", path)
}

// genFixed emits the fixed-arity key types. They live in internal/tuple so
// that both the relation layer's B-tree indexes and the durable store's
// memtable instantiate internal/btree over the same keys.
func genFixed() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/genspecialized; DO NOT EDIT.

package tuple

import "sti/internal/value"
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, `
// Tup%[1]d is the fixed-arity key type for arity-%[1]d tuples.
type Tup%[1]d [%[1]d]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup%[1]d) Cmp(b Tup%[1]d) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// FromWords returns the key held in the first %[1]d elements of w.
func (Tup%[1]d) FromWords(w Words) Tup%[1]d { return Tup%[1]d(w[:%[1]d]) }

// ToWords returns the key in the first %[1]d elements of a Words.
func (a Tup%[1]d) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}
`, n)
	}
	return b.Bytes()
}

func genTuples() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/genspecialized; DO NOT EDIT.

package relation

import (
	"sti/internal/tuple"
)
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, `
// Tup%[1]d is the fixed-arity key type for arity-%[1]d B-tree indexes.
type Tup%[1]d = tuple.Tup%[1]d

// ToTup%[1]d converts a dynamic tuple (first %[1]d elements) to a key.
func ToTup%[1]d(t tuple.Tuple) Tup%[1]d {
	var k Tup%[1]d
	copy(k[:], t)
	return k
}

// FromTup%[1]d writes a key into a dynamic tuple.
func FromTup%[1]d(k Tup%[1]d, t tuple.Tuple) {
	copy(t, k[:])
}
`, n)
	}
	b.WriteString(`
// newBTreeIndex is the arity factory for B-tree indexes (paper Fig 7).
func newBTreeIndex(order tuple.Order) Index {
	switch len(order) {
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\treturn newBTreeAdapter[Tup%d](order)\n", n, n)
	}
	b.WriteString(`	default:
		panic("relation: arity not supported by the specialized B-tree factory")
	}
}
`)
	return b.Bytes()
}

// genMemtable emits the durable store's memtable factory: one B-tree
// instantiation per key width, over the same fixed-arity keys.
func genMemtable() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/genspecialized; DO NOT EDIT.

package store

import "sti/internal/tuple"

// newMemtable is the arity factory for memtables: keyLen must be
// tuple.KeySize(n) for an arity n in 1..tuple.MaxArity.
func newMemtable(keyLen int) memtable {
	switch keyLen {
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\treturn newMemTree[tuple.Tup%d](%d)\n", 4*n, n, n)
	}
	b.WriteString(`	default:
		return nil
	}
}
`)
	return b.Bytes()
}
