package interp

import (
	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// opcode identifies an interpreter instruction. Every INode carries one, so
// the executor dispatches with a single switch (paper §3, Fig 5). The
// specialized block (generated in specialized_gen.go) encodes the target
// structure and arity in the opcode itself (paper §4.1): one opcode per
// {instruction × structure × arity}.
type opcode uint16

const (
	// statements
	opSequence opcode = iota
	opLoop
	opExit
	opQuery
	opClear
	opSwap
	opMerge
	opSubtract
	opCountMerge
	opCountDelete
	opIO
	opLogTimer

	// operations (dynamic-adapter forms)
	opScan
	opIndexScan
	opChoice
	opIndexChoice
	opFilter
	opInsert // RAM Project
	opAggregate
	opIndexAggregate

	// conditions
	opAnd
	opNot
	opEmptiness
	opExists
	opConstraint

	// expressions
	opConstant
	opTupleElement
	opIntrinsic

	// opFusedFilter is a filter whose condition was compiled to a single
	// closure (hand-crafted super-instruction, §5.2).
	opFusedFilter

	// handwritten specialized forms for the non-generic structures
	opInsertEq
	opScanEq
	opIndexScanEq
	opExistsEq
	opInsertBrie
	opScanBrie
	opIndexScanBrie
	opExistsBrie

	// opSpecializedBase starts the generated per-arity B-tree block; it
	// must be the last opcode in this list.
	opSpecializedBase
)

// Super-instruction payload entries (paper Figs 13-14): each names the
// target slot in the tuple being built and where its value comes from.
type constEntry struct {
	pos int32
	val value.Value
}

type tupleEntry struct {
	pos, tid, elem int32
}

type genEntry struct {
	pos  int32
	expr *inode
}

// inode is an Interpreter Node: a lightweight instruction with execution
// state and pre-computed values (paper §3, Fig 4). The shadow field is the
// sPtr back to the source RAM node for static information.
type inode struct {
	op opcode

	// relational operands
	rel    *relation.Relation // target relation
	rel2   *relation.Relation // second relation (swap, merge/subtract source)
	rel3   *relation.Relation // third relation (count-merge fresh, count-delete gone)
	idx    relation.Index     // chosen index (dynamic path)
	impls  []any              // concrete stores for the static path
	orders []tuple.Order      // per-impl index orders (inserts)
	order  tuple.Order        // chosen index order (scans/exists)
	decode bool               // wrap scans with a decoding iterator

	tupleID int32
	prefix  int32 // bound prefix length (encoded coordinates)
	arity   int32
	par     bool // partition this scan across workers
	// staged marks mutation deferral for parallel evaluation. On an insert
	// node it means "append to the context's worker-local staging buffer
	// instead of mutating the relation"; on a query node it means "this
	// query contains a parallel scan — allocate staging buffers and merge
	// them when the query finishes".
	staged bool
	relID  int32 // insert target's RAM relation ID (staging buffer slot)

	// tree structure
	children []*inode // sub-expressions / statements / pattern (encoded order)
	nested   *inode   // operation body
	cond     *inode   // condition
	target   *inode   // aggregate target expression

	// super-instruction payload (pattern/tuple construction)
	super      bool
	constants  []constEntry
	tupleElems []tupleEntry
	generics   []genEntry

	// fused is the hand-crafted super-instruction body of a fused filter
	// (paper §5.2): the whole condition in one dispatch.
	fused func([]tuple.Tuple) bool

	// immediates
	val    value.Value // constant
	a, b   int32       // generic payload: (tid,elem), (op,type), (cmp,type), io kind
	label  string
	ruleID int32
	widths []int32 // query: context tuple widths by tupleID
	term   int32   // query: width of the context's terminal buffer
	// provenance metadata: the insert target's base relation, the per-tid
	// base relations of the query's scans (-1 = not a relation binding),
	// and the query's positive fully-bound existence checks (whose matched
	// tuples are premises even though they bind no tuple slot).
	baseID     int32
	premRels   []int32
	premExists []*inode

	// Delta-sampling payload of an Exit node: the new_X relations its
	// emptiness checks test, plus the base relation each shadows (name and
	// telemetry block). At Exit time new_X holds exactly the fresh tuples of
	// the current iteration, so sampling here yields the per-iteration delta
	// curve of the enclosing fixpoint.
	sampleRels  []*relation.Relation
	sampleNames []string
	sampleStats []*metrics.RelationStats

	// rstats is the insert target's telemetry block (nil when telemetry is
	// off), for the specialized insert paths that bypass Relation.Insert.
	rstats *metrics.RelationStats

	shadow any // source RAM node (static info), the paper's sPtr
}

// opStats are the profiling counters of one context. They live in the
// context rather than the executor so parallel workers never contend on (or
// race over) shared counters; query and parallel-scan barriers fold them
// into the profiler on the coordinating goroutine.
type opStats struct {
	iters      uint64 // tuples visited by scans
	inserts    uint64 // tuples newly inserted
	attempts   uint64 // insert attempts (attempts - inserts = dedup hits)
	dispatches uint64 // execute() calls
	super      uint64 // dispatches avoided by super-instructions
}

// add folds another context's counters into s.
func (s *opStats) add(o *opStats) {
	s.iters += o.iters
	s.inserts += o.inserts
	s.attempts += o.attempts
	s.dispatches += o.dispatches
	s.super += o.super
}

// context is the runtime environment of one query: the tuples currently
// bound by enclosing scans (paper §3). Parallel workers get their own copy.
type context struct {
	tuples []tuple.Tuple
	// base keeps the originally allocated full-width slot per tupleID;
	// aggregates shrink tuples[tid] to their 1-wide result and must restore
	// the full slot before re-iterating.
	base []tuple.Tuple
	// pats holds the search pattern of the dynamic-adapter scan binding each
	// tupleID, and term the tuple of the dynamic insert or existence check
	// being evaluated (those are terminal, so one buffer serves them all).
	// A stack array handed to relation.Index would escape and cost a heap
	// allocation per probe; these are allocated with the context, sized by
	// arity, and safe to reuse because no Index method keeps its tuple
	// argument after it returns.
	pats []tuple.Tuple
	term tuple.Tuple
	// widths are the slot widths by tupleID, kept for clone.
	widths []int32
	// stage holds this context's worker-local staging buffers, indexed by
	// RAM relation ID, when the enclosing query defers inserts to the merge
	// barrier (parallel evaluation). nil on the direct-insert path.
	stage []*relation.StagingBuffer
	stats opStats
	exit  bool // set by Exit, consumed by Loop
	// pad receives the heavyweight-dispatch baseline's spill traffic; it
	// lives in the per-worker context so parallel workers do not contend.
	pad [8]uint64
}

// clone creates a fresh context with the same slot widths (the paper's
// thread-local context copies for parallel workers). A staging context
// clones to a staging context: each worker stages into its own buffers.
func (ctx *context) clone() *context {
	c := newContext(ctx.widths, int32(len(ctx.term)))
	if ctx.stage != nil {
		c.stage = make([]*relation.StagingBuffer, len(ctx.stage))
	}
	return c
}

// newContext allocates a query context with slots of the given widths by
// tupleID and a terminal buffer of width term. Slots, pattern buffers and
// the terminal buffer share one backing array, so a query pays the same
// three allocations however many tuples it binds.
func newContext(widths []int32, term int32) *context {
	n := int(term)
	for _, w := range widths {
		n += 2 * int(w)
	}
	vals := make([]value.Value, n)
	slots := make([]tuple.Tuple, 3*len(widths))
	ctx := &context{
		tuples: slots[:len(widths):len(widths)],
		base:   slots[len(widths) : 2*len(widths) : 2*len(widths)],
		pats:   slots[2*len(widths):],
		widths: widths,
	}
	for i, w := range widths {
		ctx.tuples[i] = vals[:w:w]
		ctx.base[i] = ctx.tuples[i]
		ctx.pats[i] = vals[w : 2*w : 2*w]
		vals = vals[2*w:]
	}
	ctx.term = vals
	return ctx
}

// shadowRAM returns the RAM node behind n, for diagnostics.
func (n *inode) shadowRAM() ram.Statement {
	if s, ok := n.shadow.(ram.Statement); ok {
		return s
	}
	return nil
}
