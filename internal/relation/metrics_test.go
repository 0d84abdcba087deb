package relation

import (
	"testing"

	"sti/internal/metrics"
	"sti/internal/tuple"
	"sti/internal/value"
)

// hotPathAllocs measures the steady-state duplicate-insert and membership
// paths (the fixpoint hot loop) for one relation.
func hotPathAllocs(r *Relation) (insert, contains float64) {
	tup := tuple.Tuple{1, 2}
	r.Insert(tup)
	insert = testing.AllocsPerRun(200, func() { r.Insert(tup) })
	contains = testing.AllocsPerRun(200, func() { r.Contains(tup) })
	return insert, contains
}

// Telemetry must be free when enabled and invisible when disabled: the
// counting paths (plain increments and atomic adds on pre-allocated blocks)
// add zero allocations over the untelemetered baseline, and the disabled
// path is a single nil check.
func TestTelemetryHotPathAllocs(t *testing.T) {
	orders := []tuple.Order{{0, 1}, {1, 0}}
	baseIns, baseCon := hotPathAllocs(New("edge", BTree, 2, orders))

	c := metrics.New()
	r := New("edge", BTree, 2, orders)
	rs := c.BindRelation(0, "edge", "btree", 2, false, 0, []string{"[0 1]", "[1 0]"})
	r.AttachMetrics(rs)
	telIns, telCon := hotPathAllocs(r)

	if telIns != baseIns {
		t.Fatalf("telemetry adds allocations to Insert: %v -> %v per op", baseIns, telIns)
	}
	if telCon != baseCon {
		t.Fatalf("telemetry adds allocations to Contains: %v -> %v per op", baseCon, telCon)
	}
	if rs.DedupHits < 200 {
		t.Fatalf("dedup hits = %d, want >= 200", rs.DedupHits)
	}
}

// The adapter counters must see traffic on every index, and agree with the
// relation-level insert counters.
func TestAdapterCounters(t *testing.T) {
	c := metrics.New()
	r := New("edge", BTree, 2, []tuple.Order{{0, 1}, {1, 0}})
	rs := c.BindRelation(0, "edge", "btree", 2, false, 0, []string{"[0 1]", "[1 0]"})
	r.AttachMetrics(rs)
	if r.Stats() != rs {
		t.Fatal("Stats() does not return the bound block")
	}

	r.Insert(tuple.Tuple{1, 2})
	r.Insert(tuple.Tuple{2, 3})
	r.Insert(tuple.Tuple{1, 2}) // duplicate
	r.Contains(tuple.Tuple{1, 2})
	it := r.Index(0).Scan()
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}

	if rs.Inserts != 2 || rs.DedupHits != 1 {
		t.Fatalf("relation counters: ins=%d dup=%d, want 2 and 1", rs.Inserts, rs.DedupHits)
	}
	primary := rs.Ops[0].View()
	if primary.Inserts != 3 || primary.Fresh != 2 {
		t.Fatalf("primary index: %+v", primary)
	}
	if primary.Lookups == 0 {
		t.Fatalf("primary index saw no lookups: %+v", primary)
	}
	if primary.Scans != 1 {
		t.Fatalf("primary index scans = %d, want 1", primary.Scans)
	}
	// Secondary indexes receive every insert too.
	secondary := rs.Ops[1].View()
	if secondary.Inserts != 3 {
		t.Fatalf("secondary index inserts = %d, want 3", secondary.Inserts)
	}
}

// Counters work for every representation the factory can build.
func TestAdapterCountersAllReps(t *testing.T) {
	for _, rep := range []Rep{BTree, Brie, EqRel, Legacy} {
		c := metrics.New()
		r := New("r", rep, 2, []tuple.Order{{0, 1}})
		rs := c.BindRelation(0, "r", rep.String(), 2, false, 0, []string{"[0 1]"})
		r.AttachMetrics(rs)
		r.Insert(tuple.Tuple{1, 2})
		r.Insert(tuple.Tuple{1, 2})
		ops := rs.Ops[0].View()
		if ops.Inserts != 2 || ops.Fresh != 1 {
			t.Errorf("%v: inserts=%d fresh=%d, want 2 and 1", rep, ops.Inserts, ops.Fresh)
		}
		if rs.Inserts != 1 || rs.DedupHits != 1 {
			t.Errorf("%v: relation ins=%d dup=%d, want 1 and 1", rep, rs.Inserts, rs.DedupHits)
		}
	}
}

// TestBTreeAdapterHotPathAllocs pins the dynamic adapter's allocation-free
// hot path: encoding a tuple into its fixed-arity key keeps the buffer on
// the stack, so a duplicate Insert and a Contains allocate nothing at every
// arity.
func TestBTreeAdapterHotPathAllocs(t *testing.T) {
	for _, arity := range []int{1, 2, 3, MaxArity} {
		idx := newBTreeIndex(tuple.Identity(arity))
		tup := make(tuple.Tuple, arity)
		for i := range tup {
			tup[i] = value.Value(i + 1)
		}
		idx.Insert(tup)
		if a := testing.AllocsPerRun(100, func() { idx.Insert(tup) }); a != 0 {
			t.Errorf("arity %d: Insert allocates %.1f per call", arity, a)
		}
		if a := testing.AllocsPerRun(100, func() { idx.Contains(tup) }); a != 0 {
			t.Errorf("arity %d: Contains allocates %.1f per call", arity, a)
		}
	}
}
