// Package relation implements the de-specialization layer of the paper (§3):
// it wraps the specialized data structures (internal/btree, internal/brie,
// internal/eqrel) behind dynamic adapters so a virtual execution environment
// can use them, after shrinking their specialization space to
// {representation × arity}:
//
//   - all lexicographic orders are reduced to the natural one by re-encoding
//     tuples on insert (tuple.Order),
//   - all element types are reduced to 32-bit words (internal/value),
//   - the remaining {representation × arity} space is small enough to
//     pre-instantiate: a generated factory covers arities 0..16 (Fig 7).
//
// Two access paths exist, matching the paper's §4.1 ablation:
//
//   - the *dynamic adapter* path: every operation goes through the Index
//     interface with []Value tuples, and scans go through a buffered
//     iterator that amortizes interface-call overhead over batches of up
//     to 128 tuples (§3), starting small so short probes stay cheap;
//   - the *static* path: the interpreter's generated specialized
//     instructions type-assert the concrete tree out of the adapter and
//     operate on it with fixed-arity array tuples and concrete iterators
//     (§4.1), paying no per-tuple interface dispatch.
package relation

import (
	"fmt"

	"sti/internal/metrics"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Rep identifies the data-structure implementation backing an index.
type Rep uint8

// The index representations in the engine's portfolio (paper §2).
const (
	BTree Rep = iota
	Brie
	EqRel
	Legacy // B-tree with a runtime-comparator (the legacy interpreter's store, §5.1)
	// Persist is the durable tier (internal/store): an LSM table keyed by
	// the order-preserving byte codec. It has no specialized static
	// instructions — every access crosses the dynamic adapter, which is
	// exactly what de-specialization buys: a sixth representation slots into
	// the portfolio with zero interpreter changes.
	Persist
)

// String returns the source-language spelling of the representation.
func (r Rep) String() string {
	switch r {
	case BTree:
		return "btree"
	case Brie:
		return "brie"
	case EqRel:
		return "eqrel"
	case Legacy:
		return "legacy"
	case Persist:
		return "persist"
	default:
		return fmt.Sprintf("rep(%d)", uint8(r))
	}
}

// MaxArity is the largest relation arity with pre-instantiated specialized
// structures. The paper observed up to 16 in practice (§3).
const MaxArity = tuple.MaxArity

// Iterator enumerates tuples. Next returns ok=false when exhausted. The
// yielded slice may be reused by subsequent Next calls on the same iterator;
// it remains valid until then.
type Iterator interface {
	Next() (tuple.Tuple, bool)
}

// batcher is the wide-call interface that the buffered iterator uses to pull
// many tuples per dynamic dispatch (paper §3: "one virtual call ... for
// every 128 read requests"). dst slots are fully-allocated tuples that the
// implementation fills in place.
type batcher interface {
	nextBatch(dst []tuple.Tuple) int
}

// Index is the dynamic adapter interface over a de-specialized data
// structure (paper Fig 7). Tuples cross this interface in *encoded* (index)
// order; callers that need source order decode with Order().Decode, or avoid
// decoding entirely via static reordering (§4.2).
//
// No method keeps its tuple or pattern argument after it returns: an
// implementation copies what it stores (and what an iterator it returns
// still needs) before returning. Callers may therefore pass a reused buffer,
// as the interpreter's dynamic opcodes do with their per-query buffers.
type Index interface {
	// Arity is the tuple width.
	Arity() int
	// Rep is the backing implementation.
	Rep() Rep
	// Order is the lexicographic order this index maintains, as a
	// permutation from source positions to encoded positions.
	Order() tuple.Order

	// Insert adds a tuple given in source order, reporting whether it was
	// newly added.
	Insert(t tuple.Tuple) bool
	// InsertAll bulk-inserts count source-order tuples packed back to back
	// in flat (len(flat) == count*Arity()), reporting how many were newly
	// added. It is the merge entry point of the staging-buffer path: one
	// dynamic dispatch covers the whole batch instead of one per tuple.
	InsertAll(flat []value.Value, count int) int
	// Delete removes a tuple given in source order, reporting whether it was
	// present. It is the retraction entry point of delete propagation and
	// runs only between scans (under the engine's write section), so
	// implementations may restructure freely; iterators obtained before a
	// Delete are invalidated. EqRel indexes cannot delete (the union-find
	// has no per-pair removal) and panic; translation gates them out.
	Delete(t tuple.Tuple) bool
	// Contains tests membership of a tuple given in source order.
	Contains(t tuple.Tuple) bool
	// ContainsEncoded tests membership of a tuple given in encoded order.
	ContainsEncoded(t tuple.Tuple) bool
	// Size is the number of stored tuples.
	Size() int
	// Clear removes all tuples.
	Clear()
	// SwapContents exchanges the stored tuples with another index of the
	// same representation, arity, and order. It panics otherwise: swapping
	// mismatched indexes is an engine bug, not a user error.
	SwapContents(other Index)

	// Scan enumerates all tuples in encoded lexicographic order.
	Scan() Iterator
	// PrefixScan enumerates, in encoded lexicographic order, tuples whose
	// first k encoded elements equal pattern[0:k].
	PrefixScan(pattern tuple.Tuple, k int) Iterator
	// AnyMatch reports whether at least one tuple matches the first k
	// encoded elements of pattern (k == 0 means "relation non-empty").
	AnyMatch(pattern tuple.Tuple, k int) bool
	// PartitionScan splits a full scan into up to n independent iterators
	// covering disjoint, collectively exhaustive tuple ranges, for parallel
	// evaluation.
	PartitionScan(n int) []Iterator

	// impl exposes the concrete specialized structure (e.g. a
	// *btree.Tree[Tup3]) to the generated static instructions.
	impl() any

	// attachOps installs telemetry counters on the adapter. nil (the
	// default) disables counting; every adapter operation then pays one nil
	// check and nothing else. Counters only observe traffic that crosses
	// the dynamic adapter — the interpreter's static instructions bypass
	// the adapter (and its counters) by design.
	attachOps(*metrics.IndexOps)
}

// Impl returns the concrete specialized data structure behind idx, for use
// by the interpreter's generated specialized instructions.
func Impl(idx Index) any { return idx.impl() }

// BufferSize is the widest batch of the buffered iterator (paper §3).
const BufferSize = 128

// firstBatch is the buffered iterator's first batch width.
const firstBatch = 8

// buffered amortizes dynamic-dispatch cost: one nextBatch interface call
// fills a batch of tuples. The first batch holds firstBatch tuples, so a
// short probe (most prefix scans return zero or one tuple) does not pay
// for BufferSize slots; each batch that comes back full doubles the next,
// up to BufferSize, where long scans keep the paper's one virtual call per
// 128 tuples.
//
// Returned tuples point into the buffer and stay valid until their buffer
// is next refilled — long enough for any nested-loop consumer that reads
// the tuple before advancing this iterator again. Each growth step fills a
// fresh buffer, so only a BufferSize buffer is ever refilled in place.
type buffered struct {
	src   batcher
	arity int
	slots []tuple.Tuple
	n     int // filled
	i     int // next to yield
	done  bool
}

// newBuffered wraps src in a growing buffer for tuples of the given arity.
// The first buffer is allocated by the first Next.
func newBuffered(src batcher, arity int) *buffered {
	return &buffered{src: src, arity: arity}
}

// grow replaces the slots with a fresh buffer twice as wide (firstBatch
// for the first), capped at BufferSize.
func (b *buffered) grow() {
	size := min(max(2*len(b.slots), firstBatch), BufferSize)
	b.slots = make([]tuple.Tuple, size)
	backing := make([]value.Value, size*b.arity)
	for i := range b.slots {
		b.slots[i] = backing[i*b.arity : (i+1)*b.arity : (i+1)*b.arity]
	}
}

func (b *buffered) Next() (tuple.Tuple, bool) {
	if b.i >= b.n {
		if b.done {
			return nil, false
		}
		if len(b.slots) < BufferSize {
			b.grow()
		}
		b.n = b.src.nextBatch(b.slots)
		b.i = 0
		if b.n < len(b.slots) {
			b.done = true
		}
		if b.n == 0 {
			return nil, false
		}
	}
	t := b.slots[b.i]
	b.i++
	return t, true
}

// emptyIter is an Iterator with no tuples.
type emptyIter struct{}

func (emptyIter) Next() (tuple.Tuple, bool) { return nil, false }
