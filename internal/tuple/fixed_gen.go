// Code generated by cmd/genspecialized; DO NOT EDIT.

package tuple

import "sti/internal/value"

// Tup1 is the fixed-arity key type for arity-1 tuples.
type Tup1 [1]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup1) Cmp(b Tup1) int {
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

// FromWords returns the key held in the first 1 elements of w.
func (Tup1) FromWords(w Words) Tup1 { return Tup1(w[:1]) }

// ToWords returns the key in the first 1 elements of a Words.
func (a Tup1) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup2 is the fixed-arity key type for arity-2 tuples.
type Tup2 [2]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup2) Cmp(b Tup2) int {
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

// FromWords returns the key held in the first 2 elements of w.
func (Tup2) FromWords(w Words) Tup2 { return Tup2(w[:2]) }

// ToWords returns the key in the first 2 elements of a Words.
func (a Tup2) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup3 is the fixed-arity key type for arity-3 tuples.
type Tup3 [3]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup3) Cmp(b Tup3) int {
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

// FromWords returns the key held in the first 3 elements of w.
func (Tup3) FromWords(w Words) Tup3 { return Tup3(w[:3]) }

// ToWords returns the key in the first 3 elements of a Words.
func (a Tup3) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup4 is the fixed-arity key type for arity-4 tuples.
type Tup4 [4]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup4) Cmp(b Tup4) int {
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

// FromWords returns the key held in the first 4 elements of w.
func (Tup4) FromWords(w Words) Tup4 { return Tup4(w[:4]) }

// ToWords returns the key in the first 4 elements of a Words.
func (a Tup4) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup5 is the fixed-arity key type for arity-5 tuples.
type Tup5 [5]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup5) Cmp(b Tup5) int {
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

// FromWords returns the key held in the first 5 elements of w.
func (Tup5) FromWords(w Words) Tup5 { return Tup5(w[:5]) }

// ToWords returns the key in the first 5 elements of a Words.
func (a Tup5) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup6 is the fixed-arity key type for arity-6 tuples.
type Tup6 [6]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup6) Cmp(b Tup6) int {
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

// FromWords returns the key held in the first 6 elements of w.
func (Tup6) FromWords(w Words) Tup6 { return Tup6(w[:6]) }

// ToWords returns the key in the first 6 elements of a Words.
func (a Tup6) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup7 is the fixed-arity key type for arity-7 tuples.
type Tup7 [7]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup7) Cmp(b Tup7) int {
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

// FromWords returns the key held in the first 7 elements of w.
func (Tup7) FromWords(w Words) Tup7 { return Tup7(w[:7]) }

// ToWords returns the key in the first 7 elements of a Words.
func (a Tup7) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup8 is the fixed-arity key type for arity-8 tuples.
type Tup8 [8]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup8) Cmp(b Tup8) int {
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

// FromWords returns the key held in the first 8 elements of w.
func (Tup8) FromWords(w Words) Tup8 { return Tup8(w[:8]) }

// ToWords returns the key in the first 8 elements of a Words.
func (a Tup8) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup9 is the fixed-arity key type for arity-9 tuples.
type Tup9 [9]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup9) Cmp(b Tup9) int {
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

// FromWords returns the key held in the first 9 elements of w.
func (Tup9) FromWords(w Words) Tup9 { return Tup9(w[:9]) }

// ToWords returns the key in the first 9 elements of a Words.
func (a Tup9) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup10 is the fixed-arity key type for arity-10 tuples.
type Tup10 [10]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup10) Cmp(b Tup10) int {
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

// FromWords returns the key held in the first 10 elements of w.
func (Tup10) FromWords(w Words) Tup10 { return Tup10(w[:10]) }

// ToWords returns the key in the first 10 elements of a Words.
func (a Tup10) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup11 is the fixed-arity key type for arity-11 tuples.
type Tup11 [11]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup11) Cmp(b Tup11) int {
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

// FromWords returns the key held in the first 11 elements of w.
func (Tup11) FromWords(w Words) Tup11 { return Tup11(w[:11]) }

// ToWords returns the key in the first 11 elements of a Words.
func (a Tup11) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup12 is the fixed-arity key type for arity-12 tuples.
type Tup12 [12]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup12) Cmp(b Tup12) int {
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

// FromWords returns the key held in the first 12 elements of w.
func (Tup12) FromWords(w Words) Tup12 { return Tup12(w[:12]) }

// ToWords returns the key in the first 12 elements of a Words.
func (a Tup12) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup13 is the fixed-arity key type for arity-13 tuples.
type Tup13 [13]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup13) Cmp(b Tup13) int {
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

// FromWords returns the key held in the first 13 elements of w.
func (Tup13) FromWords(w Words) Tup13 { return Tup13(w[:13]) }

// ToWords returns the key in the first 13 elements of a Words.
func (a Tup13) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup14 is the fixed-arity key type for arity-14 tuples.
type Tup14 [14]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup14) Cmp(b Tup14) int {
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

// FromWords returns the key held in the first 14 elements of w.
func (Tup14) FromWords(w Words) Tup14 { return Tup14(w[:14]) }

// ToWords returns the key in the first 14 elements of a Words.
func (a Tup14) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup15 is the fixed-arity key type for arity-15 tuples.
type Tup15 [15]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup15) Cmp(b Tup15) int {
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

// FromWords returns the key held in the first 15 elements of w.
func (Tup15) FromWords(w Words) Tup15 { return Tup15(w[:15]) }

// ToWords returns the key in the first 15 elements of a Words.
func (a Tup15) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}

// Tup16 is the fixed-arity key type for arity-16 tuples.
type Tup16 [16]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup16) Cmp(b Tup16) int {
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

// FromWords returns the key held in the first 16 elements of w.
func (Tup16) FromWords(w Words) Tup16 { return Tup16(w[:16]) }

// ToWords returns the key in the first 16 elements of a Words.
func (a Tup16) ToWords() (w Words) {
	copy(w[:], a[:])
	return w
}
