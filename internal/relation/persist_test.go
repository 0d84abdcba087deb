package relation

import (
	"math/rand"
	"testing"

	"sti/internal/store"
	"sti/internal/tuple"
	"sti/internal/value"
)

// testTier hands out tables from a scratch store.
type testTier struct {
	t *testing.T
	s *store.Store
}

func newTestTier(t *testing.T, opts store.Options) *testTier {
	t.Helper()
	s, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return &testTier{t: t, s: s}
}

func (tt *testTier) Table(rel string, idx int, order tuple.Order) *store.Table {
	tab, err := tt.s.Table(rel+"."+string(rune('0'+idx)), tuple.KeySize(len(order)))
	if err != nil {
		tt.t.Fatalf("Table: %v", err)
	}
	return tab
}

func (tt *testTier) Gate(rel, reason string) {}

func collect(t *testing.T, it Iterator, arity int) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for {
		tu, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, append(tuple.Tuple(nil), tu...))
	}
}

func tuplesEq(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if tuple.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestPersistMatchesBTree drives a persistent index and a B-tree index with
// the same random operation stream — under a non-identity order and a flush
// threshold small enough to cross segment and compaction boundaries — and
// requires every observable to agree: membership, size, full scans, prefix
// scans at every depth, existence probes, and partitioned scans.
func TestPersistMatchesBTree(t *testing.T) {
	const arity = 3
	order := tuple.Order{2, 0, 1}
	tier := newTestTier(t, store.Options{FlushKeys: 64, MaxSegments: 2})
	p := NewPersistent("r", arity, []tuple.Order{order}, tier)
	if p == nil {
		t.Fatal("NewPersistent declined")
	}
	pi := p.Primary()
	bi := NewIndex(BTree, order)
	if pi.Rep() != Persist || pi.Rep().String() != "persist" {
		t.Fatalf("Rep = %v", pi.Rep())
	}

	rng := rand.New(rand.NewSource(42))
	randT := func() tuple.Tuple {
		return tuple.Tuple{value.Value(rng.Intn(16)), value.Value(rng.Intn(16)), value.Value(rng.Intn(16))}
	}
	checkScans := func(step int) {
		t.Helper()
		if pi.Size() != bi.Size() {
			t.Fatalf("step %d: Size %d != %d", step, pi.Size(), bi.Size())
		}
		if !tuplesEq(collect(t, pi.Scan(), arity), collect(t, bi.Scan(), arity)) {
			t.Fatalf("step %d: Scan mismatch", step)
		}
		pat := randT()
		enc := make(tuple.Tuple, arity)
		order.Encode(enc, pat)
		for k := 0; k <= arity; k++ {
			if pi.AnyMatch(enc, k) != bi.AnyMatch(enc, k) {
				t.Fatalf("step %d: AnyMatch k=%d mismatch on %v", step, k, enc)
			}
			// Each scan gets its own copy of the pattern, overwritten
			// before the iterator runs: no Index keeps its argument.
			scan := func(idx Index) []tuple.Tuple {
				buf := append(tuple.Tuple(nil), enc...)
				it := idx.PrefixScan(buf, k)
				for i := range buf {
					buf[i] = ^value.Value(0)
				}
				return collect(t, it, arity)
			}
			if !tuplesEq(scan(pi), scan(bi)) {
				t.Fatalf("step %d: PrefixScan k=%d mismatch on %v", step, k, enc)
			}
		}
		var part []tuple.Tuple
		for _, it := range pi.PartitionScan(4) {
			part = append(part, collect(t, it, arity)...)
		}
		if !tuplesEq(part, collect(t, bi.Scan(), arity)) {
			t.Fatalf("step %d: PartitionScan union mismatch", step)
		}
	}

	for step := 0; step < 3000; step++ {
		tu := randT()
		switch rng.Intn(5) {
		case 0:
			if pi.Delete(tu) != bi.Delete(tu) {
				t.Fatalf("step %d: Delete(%v) disagrees", step, tu)
			}
		case 1:
			enc := make(tuple.Tuple, arity)
			order.Encode(enc, tu)
			if pi.ContainsEncoded(enc) != bi.ContainsEncoded(enc) {
				t.Fatalf("step %d: ContainsEncoded(%v) disagrees", step, enc)
			}
		default:
			if pi.Insert(tu) != bi.Insert(tu) {
				t.Fatalf("step %d: Insert(%v) disagrees", step, tu)
			}
		}
		if pi.Contains(tu) != bi.Contains(tu) {
			t.Fatalf("step %d: Contains(%v) disagrees", step, tu)
		}
		if step%500 == 499 {
			checkScans(step)
		}
	}
	checkScans(-1)

	// InsertAll bulk path.
	const bulk = 300
	flat := make([]value.Value, 0, bulk*arity)
	for i := 0; i < bulk; i++ {
		flat = append(flat, randT()...)
	}
	if pa, ba := pi.InsertAll(flat, bulk), bi.InsertAll(flat, bulk); pa != ba {
		t.Fatalf("InsertAll added %d != %d", pa, ba)
	}
	checkScans(-2)

	pi.Clear()
	bi.Clear()
	checkScans(-3)
}

// TestPersistGatesAtMaxArity verifies the tier declines out-of-range
// arities instead of building a broken relation.
func TestPersistGatesAtMaxArity(t *testing.T) {
	tier := newTestTier(t, store.Options{})
	if r := NewPersistent("r", 0, nil, tier); r != nil {
		t.Fatal("nullary relation persisted")
	}
	big := make(tuple.Order, MaxArity+1)
	for i := range big {
		big[i] = i
	}
	if r := NewPersistent("r", MaxArity+1, []tuple.Order{big}, tier); r != nil {
		t.Fatal("over-arity relation persisted")
	}
}
