package interp

import (
	"fmt"

	"sti/internal/compile"
	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
)

// generator builds the interpreter tree (INodes) from a RAM program,
// applying the configuration's static optimizations: specialized opcode
// assignment (§4.1), static tuple reordering (§4.2), and super-instruction
// construction (§4.4). This is the "extra code generation of the
// Interpreter Tree" whose cost the paper includes in interpreter runtimes.
type generator struct {
	eng *Engine
	cfg Config

	// coords maps a bound tupleID to the index order its tuples are stored
	// in when static reordering leaves them encoded; nil means source
	// coordinates.
	coords     map[int32]tuple.Order
	widths     map[int32]int32
	term       int32           // widest insert or existence check of the query
	prems      map[int32]int32 // tid -> base relation ID (provenance)
	premExists []*inode        // positive full-bound existence checks (provenance)
	negDepth   int
	// pendingParallel marks that the next full scan of the current query is
	// the outermost loop and should be partitioned across workers.
	pendingParallel bool
	// inParallel is true while generating the subtree nested under a
	// partitioned scan: inserts there run on worker goroutines and must
	// stage into worker-local buffers instead of mutating relations.
	inParallel bool
	// sawParallel records that the current query generated a partitioned
	// scan, so the query node must allocate and merge staging buffers.
	sawParallel bool
}

func (g *generator) relation(r *ram.Relation) *relation.Relation {
	return g.eng.rels[r.ID]
}

func (g *generator) genStatement(s ram.Statement) *inode {
	switch s := s.(type) {
	case *ram.Sequence:
		n := &inode{op: opSequence, shadow: s}
		for _, st := range s.Stmts {
			n.children = append(n.children, g.genStatement(st))
		}
		return n
	case *ram.Loop:
		return &inode{op: opLoop, label: s.Label, nested: g.genStatement(s.Body), shadow: s}
	case *ram.Exit:
		n := &inode{op: opExit, cond: g.genCond(s.Cond), shadow: s}
		g.collectSamples(n, n.cond)
		return n
	case *ram.Query:
		g.coords = map[int32]tuple.Order{}
		g.widths = map[int32]int32{}
		g.term = 0
		g.prems = map[int32]int32{}
		g.premExists = nil
		g.pendingParallel = g.cfg.Workers > 1 && s.Parallel
		g.sawParallel = false
		root := g.genOperation(s.Root)
		g.pendingParallel = false
		widths := make([]int32, s.NumTuples)
		for tid, w := range g.widths {
			widths[tid] = w
		}
		premRels := make([]int32, s.NumTuples)
		for i := range premRels {
			premRels[i] = -1
		}
		for tid, rel := range g.prems {
			premRels[tid] = rel
		}
		return &inode{
			op: opQuery, nested: root, widths: widths, term: g.term, premRels: premRels,
			premExists: g.premExists, staged: g.sawParallel,
			ruleID: int32(s.RuleID), label: s.Label, shadow: s,
		}
	case *ram.Clear:
		return &inode{op: opClear, rel: g.relation(s.Rel), shadow: s}
	case *ram.Swap:
		return &inode{op: opSwap, rel: g.relation(s.A), rel2: g.relation(s.B), shadow: s}
	case *ram.Merge:
		return &inode{op: opMerge, rel: g.relation(s.Dst), rel2: g.relation(s.Src), shadow: s}
	case *ram.Subtract:
		return &inode{op: opSubtract, rel: g.relation(s.Dst), rel2: g.relation(s.Src), shadow: s}
	case *ram.CountMerge:
		return &inode{op: opCountMerge, rel: g.relation(s.Dst), rel2: g.relation(s.Src), rel3: g.relation(s.Fresh), shadow: s}
	case *ram.CountDelete:
		return &inode{op: opCountDelete, rel: g.relation(s.Dst), rel2: g.relation(s.Src), rel3: g.relation(s.Gone), shadow: s}
	case *ram.IO:
		return &inode{op: opIO, rel: g.relation(s.Rel), a: int32(s.Kind), shadow: s}
	case *ram.LogTimer:
		return &inode{op: opLogTimer, label: s.Label, nested: g.genStatement(s.Stmt), shadow: s}
	default:
		panic(fmt.Sprintf("interp: unknown RAM statement %T", s))
	}
}

// scanOpcode picks the (possibly specialized) opcode for a scan-like
// instruction over rel.
func (g *generator) scanOpcode(generic opcode, rel *relation.Relation) opcode {
	if !g.cfg.StaticDispatch {
		return generic
	}
	if rel.Sharded() {
		// Sharded relations have no single concrete tree, but they have one
		// per shard: the sharded specialized forms bind the per-shard slice
		// and route by partition hash (specialized_shard.go). Instructions
		// without a sharded form (choice, aggregates) stay on the dynamic
		// adapter, whose merge preserves sorted enumeration order.
		if sp, ok := shardedOp(generic, rel.Rep(), rel.Arity()); ok {
			return sp
		}
		return generic
	}
	switch rel.Rep() {
	case relation.BTree:
		if sp, ok := specializedOp(generic, rel.Arity()); ok {
			return sp
		}
	case relation.EqRel:
		switch generic {
		case opInsert:
			return opInsertEq
		case opScan:
			return opScanEq
		case opIndexScan:
			return opIndexScanEq
		case opExists:
			return opExistsEq
		}
	case relation.Brie:
		switch generic {
		case opInsert:
			return opInsertBrie
		case opScan:
			return opScanBrie
		case opIndexScan:
			return opIndexScanBrie
		case opExists:
			return opExistsBrie
		}
	}
	return generic
}

// bindScanImpls binds the concrete store(s) of a scan-like node: the single
// impl for unsharded indexes, or the per-shard impl slice plus the encoded
// partition-key position (inode.b) for sharded ones.
func (g *generator) bindScanImpls(n *inode, idx relation.Index) {
	if subs, keyEnc := relation.ShardImpls(idx); subs != nil {
		n.impls = subs
		n.b = int32(keyEnc)
		return
	}
	n.impls = []any{relation.Impl(idx)}
}

func (g *generator) genOperation(o ram.Operation) *inode {
	switch o := o.(type) {
	case *ram.Scan:
		rel := g.relation(o.Rel)
		idx := rel.Primary()
		op := g.scanOpcode(opScan, rel)
		par := false
		if g.pendingParallel {
			// The outermost full scan is partitioned across workers; it
			// runs through the dynamic adapter (whose iterators partition),
			// while everything nested stays specialized.
			g.pendingParallel = false
			if rel.Arity() > 0 {
				op = opScan
				par = true
			}
		}
		n := &inode{
			op:      op,
			par:     par,
			rel:     rel,
			idx:     idx,
			order:   idx.Order(),
			arity:   int32(rel.Arity()),
			tupleID: int32(o.TupleID),
			shadow:  o,
		}
		g.bindScanImpls(n, idx)
		g.widths[n.tupleID] = n.arity
		g.prems[n.tupleID] = int32(o.Rel.BaseID)
		g.bindCoords(n.tupleID, idx.Order(), n)
		if par {
			// Everything nested runs on worker goroutines: inserts must
			// stage into worker-local buffers (merged at the scan barrier).
			g.sawParallel = true
			g.inParallel = true
			n.nested = g.genOperation(o.Nested)
			g.inParallel = false
		} else {
			n.nested = g.genOperation(o.Nested)
		}
		return n

	case *ram.IndexScan:
		// Only a query's outermost *full* scan is parallelized; any other
		// loop kind ends the search.
		g.pendingParallel = false
		rel := g.relation(o.Rel)
		idx := rel.Index(o.IndexID)
		n := &inode{
			op:      g.scanOpcode(opIndexScan, rel),
			rel:     rel,
			idx:     idx,
			order:   idx.Order(),
			arity:   int32(rel.Arity()),
			tupleID: int32(o.TupleID),
			shadow:  o,
		}
		g.bindScanImpls(n, idx)
		n.children, n.prefix = g.genPattern(o.Pattern, idx.Order())
		g.applySuper(n)
		g.widths[n.tupleID] = n.arity
		g.prems[n.tupleID] = int32(o.Rel.BaseID)
		g.bindCoords(n.tupleID, idx.Order(), n)
		n.nested = g.genOperation(o.Nested)
		return n

	case *ram.Choice:
		g.pendingParallel = false
		rel := g.relation(o.Rel)
		idx := rel.Primary()
		op := opChoice
		if g.cfg.StaticDispatch && !rel.Sharded() && rel.Rep() == relation.BTree {
			if sp, ok := specializedOp(opChoice, rel.Arity()); ok {
				op = sp
			}
		}
		n := &inode{
			op: op, rel: rel, idx: idx, order: idx.Order(),
			arity: int32(rel.Arity()), tupleID: int32(o.TupleID), shadow: o,
		}
		n.impls = []any{relation.Impl(idx)}
		g.widths[n.tupleID] = n.arity
		g.prems[n.tupleID] = int32(o.Rel.BaseID)
		g.bindCoords(n.tupleID, idx.Order(), n)
		if o.Cond != nil {
			n.cond = g.genCond(o.Cond)
		}
		n.nested = g.genOperation(o.Nested)
		return n

	case *ram.IndexChoice:
		g.pendingParallel = false
		rel := g.relation(o.Rel)
		idx := rel.Index(o.IndexID)
		op := opIndexChoice
		if g.cfg.StaticDispatch && !rel.Sharded() && rel.Rep() == relation.BTree {
			if sp, ok := specializedOp(opIndexChoice, rel.Arity()); ok {
				op = sp
			}
		}
		n := &inode{
			op: op, rel: rel, idx: idx, order: idx.Order(),
			arity: int32(rel.Arity()), tupleID: int32(o.TupleID), shadow: o,
		}
		n.impls = []any{relation.Impl(idx)}
		n.children, n.prefix = g.genPattern(o.Pattern, idx.Order())
		g.applySuper(n)
		g.widths[n.tupleID] = n.arity
		g.bindCoords(n.tupleID, idx.Order(), n)
		if o.Cond != nil {
			n.cond = g.genCond(o.Cond)
		}
		n.nested = g.genOperation(o.Nested)
		return n

	case *ram.Filter:
		if g.cfg.FusedFilters {
			// Collapse a chain of nested filters into one condition, so the
			// hand-crafted super-instruction covers the whole filter
			// cascade of a rule in a single dispatch (paper §5.2).
			if compile.Fusible(o.Cond) {
				cond := ram.Condition(o.Cond)
				inner := o.Nested
				for {
					f, ok := inner.(*ram.Filter)
					if !ok || !compile.Fusible(f.Cond) {
						break
					}
					cond = &ram.And{L: cond, R: f.Cond}
					inner = f.Nested
				}
				if fn, ok := compile.CompileCondition(cond, g.eng.st, g.coords); ok {
					return &inode{op: opFusedFilter, fused: fn, nested: g.genOperation(inner), shadow: o}
				}
			}
		}
		return &inode{op: opFilter, cond: g.genCond(o.Cond), nested: g.genOperation(o.Nested), shadow: o}

	case *ram.Project:
		rel := g.relation(o.Rel)
		op := g.scanOpcode(opInsert, rel)
		if rel.Counting() {
			// Counting relations track per-tuple support: every insert
			// attempt must flow through Relation.Insert (or a staging
			// buffer's InsertAll), so the specialized direct-to-index
			// insert forms are disabled for them.
			op = opInsert
		}
		n := &inode{
			op:     op,
			rel:    rel,
			relID:  int32(o.Rel.ID),
			staged: g.inParallel,
			arity:  int32(rel.Arity()),
			baseID: int32(o.Rel.BaseID),
			rstats: rel.Stats(),
			shadow: o,
		}
		g.term = max(g.term, n.arity)
		for i := 0; i < rel.NumIndexes(); i++ {
			if subs, _ := relation.ShardImpls(rel.Index(i)); subs != nil {
				// Sharded insert: impls is index-major (index i's shard s at
				// i*shards+s), with the source key column in n.b so the
				// instruction routes each tuple with one hash.
				n.impls = append(n.impls, subs...)
				n.b = int32(rel.ShardKeyCol())
			} else {
				n.impls = append(n.impls, relation.Impl(rel.Index(i)))
			}
			n.orders = append(n.orders, rel.Index(i).Order())
		}
		for _, e := range o.Exprs {
			n.children = append(n.children, g.genExpr(e))
		}
		g.applySuper(n)
		return n

	case *ram.Aggregate:
		g.pendingParallel = false
		rel := g.relation(o.Rel)
		var idx relation.Index
		if o.IndexID >= 0 {
			idx = rel.Index(o.IndexID)
		} else {
			idx = rel.Primary()
		}
		generic := opAggregate
		if o.IndexID >= 0 {
			generic = opIndexAggregate
		}
		op := generic
		if g.cfg.StaticDispatch && !rel.Sharded() && rel.Rep() == relation.BTree {
			if sp, ok := specializedOp(generic, rel.Arity()); ok {
				op = sp
			}
		}
		n := &inode{
			op: op, rel: rel, idx: idx, order: idx.Order(),
			arity: int32(rel.Arity()), tupleID: int32(o.TupleID),
			a: int32(o.Kind), b: int32(o.Type), shadow: o,
		}
		n.impls = []any{relation.Impl(idx)}
		n.children, n.prefix = g.genPattern(o.Pattern, idx.Order())
		g.applySuper(n)
		w := n.arity
		if w < 1 {
			w = 1
		}
		g.widths[n.tupleID] = w
		// Candidate tuples are visible to the target and condition in the
		// index's coordinates; the 1-tuple result afterwards is not.
		g.bindCoords(n.tupleID, idx.Order(), n)
		if o.Target != nil {
			n.target = g.genExpr(o.Target)
		}
		if o.Cond != nil {
			n.cond = g.genCond(o.Cond)
		}
		delete(g.coords, n.tupleID)
		n.nested = g.genOperation(o.Nested)
		return n

	default:
		panic(fmt.Sprintf("interp: unknown RAM operation %T", o))
	}
}

// collectSamples walks an Exit condition gathering the new_X relations its
// emptiness checks test, giving the Exit node its delta-sampling payload:
// the relations to size at exit-evaluation time, each labeled with the base
// relation it shadows. The payload is built unconditionally (it is a
// handful of pointers); the runtime only consults it under telemetry.
func (g *generator) collectSamples(exit, cond *inode) {
	switch cond.op {
	case opAnd:
		g.collectSamples(exit, cond.children[0])
		g.collectSamples(exit, cond.children[1])
	case opEmptiness:
		check, ok := cond.shadow.(*ram.EmptinessCheck)
		if !ok {
			return
		}
		name := check.Rel.Name
		var baseStats *metrics.RelationStats
		if base := check.Rel.BaseID; base >= 0 && base < len(g.eng.rels) {
			name = g.eng.prog.Relations[base].Name
			baseStats = g.eng.rels[base].Stats()
		}
		exit.sampleRels = append(exit.sampleRels, cond.rel)
		exit.sampleNames = append(exit.sampleNames, name)
		exit.sampleStats = append(exit.sampleStats, baseStats)
	}
}

// bindCoords records which coordinate system the tuple bound at tid uses
// inside the nested subtree, and whether the scan must decode at runtime.
func (g *generator) bindCoords(tid int32, order tuple.Order, n *inode) {
	if order.IsIdentity() {
		return
	}
	if g.cfg.StaticReordering {
		g.coords[tid] = order
	} else {
		n.decode = true
	}
}

// genPattern lowers a source-coordinate RAM pattern into encoded pattern
// children: child i is the expression for encoded position i, for the k
// bound positions. Index selection guarantees the bound set is a prefix of
// the order.
func (g *generator) genPattern(pattern []ram.Expr, order tuple.Order) ([]*inode, int32) {
	var children []*inode
	k := int32(0)
	for i := 0; i < len(order); i++ {
		src := pattern[order[i]]
		if src == nil {
			break
		}
		children = append(children, g.genExpr(src))
		k++
	}
	// Verify nothing bound was left behind the prefix (engine invariant).
	bound := int32(0)
	for _, e := range pattern {
		if e != nil {
			bound++
		}
	}
	if bound != k {
		panic(fmt.Sprintf("interp: pattern with %d bound positions is not a prefix of order %v", bound, order))
	}
	return children, k
}

// applySuper splits a node's children into constant, tuple-element, and
// generic fields (paper Fig 13), eliminating dispatches for the first two
// classes.
func (g *generator) applySuper(n *inode) {
	if !g.cfg.SuperInstructions || len(n.children) == 0 {
		return
	}
	n.super = true
	for i, ch := range n.children {
		switch ch.op {
		case opConstant:
			n.constants = append(n.constants, constEntry{pos: int32(i), val: ch.val})
		case opTupleElement:
			n.tupleElems = append(n.tupleElems, tupleEntry{pos: int32(i), tid: ch.a, elem: ch.b})
		default:
			n.generics = append(n.generics, genEntry{pos: int32(i), expr: ch})
		}
	}
}

func (g *generator) genCond(c ram.Condition) *inode {
	switch c := c.(type) {
	case *ram.And:
		return &inode{op: opAnd, children: []*inode{g.genCond(c.L), g.genCond(c.R)}, shadow: c}
	case *ram.Not:
		g.negDepth++
		inner := g.genCond(c.C)
		g.negDepth--
		return &inode{op: opNot, cond: inner, shadow: c}
	case *ram.EmptinessCheck:
		return &inode{op: opEmptiness, rel: g.relation(c.Rel), shadow: c}
	case *ram.ExistenceCheck:
		rel := g.relation(c.Rel)
		idx := rel.Index(c.IndexID)
		n := &inode{
			op: g.scanOpcode(opExists, rel), rel: rel, idx: idx,
			order: idx.Order(), arity: int32(rel.Arity()),
			baseID: int32(c.Rel.BaseID), shadow: c,
		}
		g.bindScanImpls(n, idx)
		n.children, n.prefix = g.genPattern(c.Pattern, idx.Order())
		g.applySuper(n)
		g.term = max(g.term, n.arity)
		if g.negDepth == 0 && n.prefix == n.arity && n.arity > 0 {
			g.premExists = append(g.premExists, n)
		}
		return n
	case *ram.Constraint:
		return &inode{
			op: opConstraint, a: int32(c.Op), b: int32(c.Type),
			children: []*inode{g.genExpr(c.L), g.genExpr(c.R)}, shadow: c,
		}
	default:
		panic(fmt.Sprintf("interp: unknown RAM condition %T", c))
	}
}

func (g *generator) genExpr(e ram.Expr) *inode {
	switch e := e.(type) {
	case *ram.Constant:
		return &inode{op: opConstant, val: e.Val, shadow: e}
	case *ram.TupleElement:
		elem := e.Elem
		// Static reordering (§4.2): if the referenced tuple is stored in
		// index coordinates, rewrite the access to the encoded position.
		if order := g.coords[int32(e.TupleID)]; order != nil {
			elem = order.Inverse()[elem]
		}
		return &inode{op: opTupleElement, a: int32(e.TupleID), b: int32(elem), shadow: e}
	case *ram.Intrinsic:
		n := &inode{op: opIntrinsic, a: int32(e.Op), b: int32(e.Type), shadow: e}
		for _, arg := range e.Args {
			n.children = append(n.children, g.genExpr(arg))
		}
		return n
	default:
		panic(fmt.Sprintf("interp: unknown RAM expression %T", e))
	}
}
