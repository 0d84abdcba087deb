// Code generated by cmd/genspecialized; DO NOT EDIT.

package store

import "sti/internal/tuple"

// newMemtable is the arity factory for memtables: keyLen must be
// tuple.KeySize(n) for an arity n in 1..tuple.MaxArity.
func newMemtable(keyLen int) memtable {
	switch keyLen {
	case 4:
		return newMemTree[tuple.Tup1](1)
	case 8:
		return newMemTree[tuple.Tup2](2)
	case 12:
		return newMemTree[tuple.Tup3](3)
	case 16:
		return newMemTree[tuple.Tup4](4)
	case 20:
		return newMemTree[tuple.Tup5](5)
	case 24:
		return newMemTree[tuple.Tup6](6)
	case 28:
		return newMemTree[tuple.Tup7](7)
	case 32:
		return newMemTree[tuple.Tup8](8)
	case 36:
		return newMemTree[tuple.Tup9](9)
	case 40:
		return newMemTree[tuple.Tup10](10)
	case 44:
		return newMemTree[tuple.Tup11](11)
	case 48:
		return newMemTree[tuple.Tup12](12)
	case 52:
		return newMemTree[tuple.Tup13](13)
	case 56:
		return newMemTree[tuple.Tup14](14)
	case 60:
		return newMemTree[tuple.Tup15](15)
	case 64:
		return newMemTree[tuple.Tup16](16)
	default:
		return nil
	}
}
