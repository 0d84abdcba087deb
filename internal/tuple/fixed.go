package tuple

import "sti/internal/value"

// MaxArity is the widest tuple with a fixed-arity key type (Tup1..Tup16 in
// fixed_gen.go). The paper observed up to 16 in practice (§3).
const MaxArity = 16

// Words holds a tuple of up to MaxArity elements by value. Fixed-arity keys
// convert through it rather than through a slice: a Words argument is
// copied, so a generic caller's stack buffer never escapes to the heap when
// the conversion is called through the instantiation's dictionary.
type Words = [MaxArity]value.Value

// FixedKey is the constraint every fixed-arity key type satisfies: an
// ordered key (a btree.Key) that converts to and from Words. Cmp orders keys
// exactly as Compare orders their tuples, and so exactly as bytes.Compare
// orders their EncodedKey forms.
type FixedKey[K any] interface {
	comparable
	Cmp(K) int
	// FromWords returns the key held in the first elements of w.
	FromWords(w Words) K
	// ToWords returns the key's elements in the first positions of a Words.
	ToWords() Words
}
