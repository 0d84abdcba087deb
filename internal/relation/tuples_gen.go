// Code generated by cmd/genspecialized; DO NOT EDIT.

package relation

import (
	"sti/internal/tuple"
)

// Tup1 is the fixed-arity key type for arity-1 B-tree indexes.
type Tup1 = tuple.Tup1

// ToTup1 converts a dynamic tuple (first 1 elements) to a key.
func ToTup1(t tuple.Tuple) Tup1 {
	var k Tup1
	copy(k[:], t)
	return k
}

// FromTup1 writes a key into a dynamic tuple.
func FromTup1(k Tup1, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup2 is the fixed-arity key type for arity-2 B-tree indexes.
type Tup2 = tuple.Tup2

// ToTup2 converts a dynamic tuple (first 2 elements) to a key.
func ToTup2(t tuple.Tuple) Tup2 {
	var k Tup2
	copy(k[:], t)
	return k
}

// FromTup2 writes a key into a dynamic tuple.
func FromTup2(k Tup2, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup3 is the fixed-arity key type for arity-3 B-tree indexes.
type Tup3 = tuple.Tup3

// ToTup3 converts a dynamic tuple (first 3 elements) to a key.
func ToTup3(t tuple.Tuple) Tup3 {
	var k Tup3
	copy(k[:], t)
	return k
}

// FromTup3 writes a key into a dynamic tuple.
func FromTup3(k Tup3, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup4 is the fixed-arity key type for arity-4 B-tree indexes.
type Tup4 = tuple.Tup4

// ToTup4 converts a dynamic tuple (first 4 elements) to a key.
func ToTup4(t tuple.Tuple) Tup4 {
	var k Tup4
	copy(k[:], t)
	return k
}

// FromTup4 writes a key into a dynamic tuple.
func FromTup4(k Tup4, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup5 is the fixed-arity key type for arity-5 B-tree indexes.
type Tup5 = tuple.Tup5

// ToTup5 converts a dynamic tuple (first 5 elements) to a key.
func ToTup5(t tuple.Tuple) Tup5 {
	var k Tup5
	copy(k[:], t)
	return k
}

// FromTup5 writes a key into a dynamic tuple.
func FromTup5(k Tup5, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup6 is the fixed-arity key type for arity-6 B-tree indexes.
type Tup6 = tuple.Tup6

// ToTup6 converts a dynamic tuple (first 6 elements) to a key.
func ToTup6(t tuple.Tuple) Tup6 {
	var k Tup6
	copy(k[:], t)
	return k
}

// FromTup6 writes a key into a dynamic tuple.
func FromTup6(k Tup6, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup7 is the fixed-arity key type for arity-7 B-tree indexes.
type Tup7 = tuple.Tup7

// ToTup7 converts a dynamic tuple (first 7 elements) to a key.
func ToTup7(t tuple.Tuple) Tup7 {
	var k Tup7
	copy(k[:], t)
	return k
}

// FromTup7 writes a key into a dynamic tuple.
func FromTup7(k Tup7, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup8 is the fixed-arity key type for arity-8 B-tree indexes.
type Tup8 = tuple.Tup8

// ToTup8 converts a dynamic tuple (first 8 elements) to a key.
func ToTup8(t tuple.Tuple) Tup8 {
	var k Tup8
	copy(k[:], t)
	return k
}

// FromTup8 writes a key into a dynamic tuple.
func FromTup8(k Tup8, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup9 is the fixed-arity key type for arity-9 B-tree indexes.
type Tup9 = tuple.Tup9

// ToTup9 converts a dynamic tuple (first 9 elements) to a key.
func ToTup9(t tuple.Tuple) Tup9 {
	var k Tup9
	copy(k[:], t)
	return k
}

// FromTup9 writes a key into a dynamic tuple.
func FromTup9(k Tup9, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup10 is the fixed-arity key type for arity-10 B-tree indexes.
type Tup10 = tuple.Tup10

// ToTup10 converts a dynamic tuple (first 10 elements) to a key.
func ToTup10(t tuple.Tuple) Tup10 {
	var k Tup10
	copy(k[:], t)
	return k
}

// FromTup10 writes a key into a dynamic tuple.
func FromTup10(k Tup10, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup11 is the fixed-arity key type for arity-11 B-tree indexes.
type Tup11 = tuple.Tup11

// ToTup11 converts a dynamic tuple (first 11 elements) to a key.
func ToTup11(t tuple.Tuple) Tup11 {
	var k Tup11
	copy(k[:], t)
	return k
}

// FromTup11 writes a key into a dynamic tuple.
func FromTup11(k Tup11, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup12 is the fixed-arity key type for arity-12 B-tree indexes.
type Tup12 = tuple.Tup12

// ToTup12 converts a dynamic tuple (first 12 elements) to a key.
func ToTup12(t tuple.Tuple) Tup12 {
	var k Tup12
	copy(k[:], t)
	return k
}

// FromTup12 writes a key into a dynamic tuple.
func FromTup12(k Tup12, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup13 is the fixed-arity key type for arity-13 B-tree indexes.
type Tup13 = tuple.Tup13

// ToTup13 converts a dynamic tuple (first 13 elements) to a key.
func ToTup13(t tuple.Tuple) Tup13 {
	var k Tup13
	copy(k[:], t)
	return k
}

// FromTup13 writes a key into a dynamic tuple.
func FromTup13(k Tup13, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup14 is the fixed-arity key type for arity-14 B-tree indexes.
type Tup14 = tuple.Tup14

// ToTup14 converts a dynamic tuple (first 14 elements) to a key.
func ToTup14(t tuple.Tuple) Tup14 {
	var k Tup14
	copy(k[:], t)
	return k
}

// FromTup14 writes a key into a dynamic tuple.
func FromTup14(k Tup14, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup15 is the fixed-arity key type for arity-15 B-tree indexes.
type Tup15 = tuple.Tup15

// ToTup15 converts a dynamic tuple (first 15 elements) to a key.
func ToTup15(t tuple.Tuple) Tup15 {
	var k Tup15
	copy(k[:], t)
	return k
}

// FromTup15 writes a key into a dynamic tuple.
func FromTup15(k Tup15, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup16 is the fixed-arity key type for arity-16 B-tree indexes.
type Tup16 = tuple.Tup16

// ToTup16 converts a dynamic tuple (first 16 elements) to a key.
func ToTup16(t tuple.Tuple) Tup16 {
	var k Tup16
	copy(k[:], t)
	return k
}

// FromTup16 writes a key into a dynamic tuple.
func FromTup16(k Tup16, t tuple.Tuple) {
	copy(t, k[:])
}

// newBTreeIndex is the arity factory for B-tree indexes (paper Fig 7).
func newBTreeIndex(order tuple.Order) Index {
	switch len(order) {
	case 1:
		return newBTreeAdapter[Tup1](order)
	case 2:
		return newBTreeAdapter[Tup2](order)
	case 3:
		return newBTreeAdapter[Tup3](order)
	case 4:
		return newBTreeAdapter[Tup4](order)
	case 5:
		return newBTreeAdapter[Tup5](order)
	case 6:
		return newBTreeAdapter[Tup6](order)
	case 7:
		return newBTreeAdapter[Tup7](order)
	case 8:
		return newBTreeAdapter[Tup8](order)
	case 9:
		return newBTreeAdapter[Tup9](order)
	case 10:
		return newBTreeAdapter[Tup10](order)
	case 11:
		return newBTreeAdapter[Tup11](order)
	case 12:
		return newBTreeAdapter[Tup12](order)
	case 13:
		return newBTreeAdapter[Tup13](order)
	case 14:
		return newBTreeAdapter[Tup14](order)
	case 15:
		return newBTreeAdapter[Tup15](order)
	case 16:
		return newBTreeAdapter[Tup16](order)
	default:
		panic("relation: arity not supported by the specialized B-tree factory")
	}
}
