package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sti/internal/tuple"
	"sti/internal/value"
)

func drain(it Iterator) []tuple.Tuple {
	var out []tuple.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, tuple.Clone(t))
	}
}

// reps to exercise uniformly in adapter contract tests.
var allReps = []Rep{BTree, Brie, Legacy}

func TestFactoryArities(t *testing.T) {
	for _, rep := range allReps {
		for arity := 1; arity <= MaxArity; arity++ {
			idx := NewIndex(rep, tuple.Identity(arity))
			if idx.Arity() != arity {
				t.Fatalf("%v arity %d: got %d", rep, arity, idx.Arity())
			}
			tup := make(tuple.Tuple, arity)
			for i := range tup {
				tup[i] = value.Value(i + 1)
			}
			if !idx.Insert(tup) || idx.Insert(tup) {
				t.Fatalf("%v arity %d: insert newness wrong", rep, arity)
			}
			if !idx.Contains(tup) {
				t.Fatalf("%v arity %d: contains failed", rep, arity)
			}
			if idx.Size() != 1 {
				t.Fatalf("%v arity %d: size %d", rep, arity, idx.Size())
			}
		}
	}
}

func TestFactoryArityOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity 17 did not panic")
		}
	}()
	NewIndex(BTree, tuple.Identity(MaxArity+1))
}

func TestNullary(t *testing.T) {
	idx := NewIndex(BTree, tuple.Order{})
	if idx.Arity() != 0 || idx.Size() != 0 {
		t.Fatal("bad empty nullary index")
	}
	if idx.Contains(tuple.Tuple{}) {
		t.Fatal("empty nullary contains")
	}
	if !idx.Insert(tuple.Tuple{}) || idx.Insert(tuple.Tuple{}) {
		t.Fatal("nullary insert newness wrong")
	}
	got := drain(idx.Scan())
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("nullary scan: %v", got)
	}
	idx.Clear()
	if idx.Size() != 0 {
		t.Fatal("nullary clear failed")
	}
}

// TestEncodedOrderContract: Scan yields tuples in encoded lexicographic
// order, and encoded tuples decode back to the inserted source tuples.
func TestEncodedOrderContract(t *testing.T) {
	order := tuple.Order{1, 0}
	for _, rep := range allReps {
		t.Run(rep.String(), func(t *testing.T) {
			idx := NewIndex(rep, order)
			src := []tuple.Tuple{{5, 1}, {3, 2}, {4, 1}, {3, 9}}
			for _, s := range src {
				idx.Insert(s)
			}
			enc := drain(idx.Scan())
			if len(enc) != len(src) {
				t.Fatalf("scan %d tuples", len(enc))
			}
			for i := 1; i < len(enc); i++ {
				if tuple.Compare(enc[i-1], enc[i]) >= 0 {
					t.Fatalf("encoded scan out of order: %v then %v", enc[i-1], enc[i])
				}
			}
			// Decode and compare as sets.
			dec := drain(NewDecoder(idx.Scan(), order))
			want := make([]tuple.Tuple, len(src))
			for i, s := range src {
				want[i] = tuple.Clone(s)
			}
			sortTuples(dec)
			sortTuples(want)
			for i := range want {
				if tuple.Compare(dec[i], want[i]) != 0 {
					t.Fatalf("decoded set mismatch: got %v want %v", dec, want)
				}
			}
		})
	}
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
}

// TestPrefixScanAllReps: prefix scans return exactly the matching tuples,
// in encoded order, for every representation and a non-trivial order.
// Inserts and patterns pass through reused buffers, and each pattern is
// overwritten before its iterator runs: no Index method may keep its
// argument after it returns.
func TestPrefixScanAllReps(t *testing.T) {
	order := tuple.Order{2, 0, 1}
	rng := rand.New(rand.NewSource(21))
	var src []tuple.Tuple
	for i := 0; i < 800; i++ {
		src = append(src, tuple.Tuple{
			value.Value(rng.Intn(8)), value.Value(rng.Intn(8)), value.Value(rng.Intn(8)),
		})
	}
	for _, rep := range allReps {
		t.Run(rep.String(), func(t *testing.T) {
			idx := NewIndex(rep, order)
			model := map[[3]value.Value]bool{}
			buf := make(tuple.Tuple, 3)
			for _, s := range src {
				copy(buf, s)
				idx.Insert(buf)
				model[[3]value.Value{s[0], s[1], s[2]}] = true
			}
			for k := 0; k <= 3; k++ {
				pattern := tuple.Tuple{4, 2, 7} // encoded pattern
				copy(buf, pattern)
				it := idx.PrefixScan(buf, k)
				for i := range buf {
					buf[i] = ^value.Value(0)
				}
				got := drain(it)
				// Reference: filter the model in encoded space.
				var want []tuple.Tuple
				for m := range model {
					enc := order.Encoded(tuple.Tuple{m[0], m[1], m[2]})
					match := true
					for i := 0; i < k; i++ {
						if enc[i] != pattern[i] {
							match = false
							break
						}
					}
					if match {
						want = append(want, enc)
					}
				}
				sortTuples(want)
				if len(got) != len(want) {
					t.Fatalf("k=%d: got %d want %d", k, len(got), len(want))
				}
				for i := range want {
					if tuple.Compare(got[i], want[i]) != 0 {
						t.Fatalf("k=%d position %d: got %v want %v", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestEqrelAdapter(t *testing.T) {
	idx := NewIndex(EqRel, tuple.Identity(2))
	idx.Insert(tuple.Tuple{1, 2})
	idx.Insert(tuple.Tuple{2, 3})
	if idx.Size() != 9 {
		t.Fatalf("eqrel size = %d, want 9", idx.Size())
	}
	if !idx.Contains(tuple.Tuple{3, 1}) {
		t.Fatal("transitive pair missing")
	}
	got := drain(idx.PrefixScan(tuple.Tuple{2, 0}, 1))
	if len(got) != 3 {
		t.Fatalf("prefix scan: %d pairs, want 3", len(got))
	}
	got = drain(idx.PrefixScan(tuple.Tuple{1, 3}, 2))
	if len(got) != 1 {
		t.Fatalf("full prefix: %v", got)
	}
	got = drain(idx.PrefixScan(tuple.Tuple{1, 7}, 2))
	if len(got) != 0 {
		t.Fatalf("absent full prefix: %v", got)
	}
}

func TestBufferedIteratorLargeScan(t *testing.T) {
	// More tuples than one buffer so refills are exercised.
	idx := NewIndex(BTree, tuple.Identity(2))
	const n = BufferSize*3 + 17
	for i := 0; i < n; i++ {
		idx.Insert(tuple.Tuple{value.Value(i), value.Value(i * 2)})
	}
	got := drain(idx.Scan())
	if len(got) != n {
		t.Fatalf("scanned %d tuples, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp[0] != value.Value(i) || tp[1] != value.Value(i*2) {
			t.Fatalf("tuple %d = %v", i, tp)
		}
	}
}

// TestBufferedStability: a tuple yielded by a buffered scan stays intact
// while an inner iterator advances (the nested-loop usage pattern).
func TestBufferedStability(t *testing.T) {
	outer := NewIndex(BTree, tuple.Identity(1))
	inner := NewIndex(BTree, tuple.Identity(1))
	for i := 0; i < 10; i++ {
		outer.Insert(tuple.Tuple{value.Value(i)})
		inner.Insert(tuple.Tuple{value.Value(100 + i)})
	}
	oit := outer.Scan()
	for {
		ot, ok := oit.Next()
		if !ok {
			break
		}
		want := ot[0]
		iit := inner.Scan()
		for {
			if _, ok := iit.Next(); !ok {
				break
			}
			if ot[0] != want {
				t.Fatal("outer tuple mutated during inner scan")
			}
		}
	}
}

func TestRelationMultiIndex(t *testing.T) {
	orders := []tuple.Order{{0, 1}, {1, 0}}
	r := New("edge", BTree, 2, orders)
	if r.NumIndexes() != 2 {
		t.Fatalf("NumIndexes = %d", r.NumIndexes())
	}
	r.Insert(tuple.Tuple{1, 2})
	r.Insert(tuple.Tuple{3, 2})
	if r.Size() != 2 || !r.Contains(tuple.Tuple{3, 2}) {
		t.Fatal("relation basic ops failed")
	}
	if r.Index(1).Size() != 2 {
		t.Fatal("secondary index not populated")
	}
	// Secondary index answers a prefix query on source column 1.
	got := drain(r.Index(1).PrefixScan(tuple.Tuple{2, 0}, 1))
	if len(got) != 2 {
		t.Fatalf("secondary prefix scan: %v", got)
	}
}

func TestRelationSwapAndClear(t *testing.T) {
	mk := func() *Relation {
		return New("r", BTree, 2, []tuple.Order{{0, 1}, {1, 0}})
	}
	a, b := mk(), mk()
	a.Insert(tuple.Tuple{1, 1})
	b.Insert(tuple.Tuple{2, 2})
	b.Insert(tuple.Tuple{3, 3})
	a.SwapContents(b)
	if a.Size() != 2 || b.Size() != 1 {
		t.Fatalf("swap sizes: %d %d", a.Size(), b.Size())
	}
	if !a.Contains(tuple.Tuple{2, 2}) || !b.Contains(tuple.Tuple{1, 1}) {
		t.Fatal("swap contents wrong")
	}
	a.Clear()
	if !a.Empty() || a.Index(1).Size() != 0 {
		t.Fatal("clear missed an index")
	}
}

func TestSwapMismatchPanics(t *testing.T) {
	a := NewIndex(BTree, tuple.Identity(2))
	b := NewIndex(Brie, tuple.Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched swap did not panic")
		}
	}()
	a.SwapContents(b)
}

func TestRelationScanDecodes(t *testing.T) {
	// Primary order is non-natural; Relation.Scan must yield source order.
	r := New("r", BTree, 2, []tuple.Order{{1, 0}})
	r.Insert(tuple.Tuple{7, 1})
	got := drain(r.Scan())
	if len(got) != 1 || got[0][0] != 7 || got[0][1] != 1 {
		t.Fatalf("decoded scan = %v", got)
	}
}

func TestContainsEncoded(t *testing.T) {
	order := tuple.Order{1, 0}
	for _, rep := range allReps {
		idx := NewIndex(rep, order)
		idx.Insert(tuple.Tuple{7, 3}) // encoded as (3,7)
		if !idx.ContainsEncoded(tuple.Tuple{3, 7}) {
			t.Errorf("%v: ContainsEncoded missed", rep)
		}
		if idx.ContainsEncoded(tuple.Tuple{7, 3}) {
			t.Errorf("%v: ContainsEncoded matched source order", rep)
		}
	}
}

func TestImplExposesConcreteTree(t *testing.T) {
	idx := NewIndex(BTree, tuple.Identity(3))
	if _, ok := Impl(idx).(interface{ Size() int }); !ok {
		t.Fatalf("Impl returned %T", Impl(idx))
	}
}

func TestRepString(t *testing.T) {
	for rep, want := range map[Rep]string{BTree: "btree", Brie: "brie", EqRel: "eqrel", Legacy: "legacy"} {
		if rep.String() != want {
			t.Errorf("%d.String() = %q", rep, rep.String())
		}
	}
}

func BenchmarkInsertBTreeAdapter(b *testing.B) {
	for _, arity := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			idx := NewIndex(BTree, tuple.Identity(arity))
			tup := make(tuple.Tuple, arity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tup[0] = value.Value(i)
				tup[arity-1] = value.Value(i >> 8)
				idx.Insert(tup)
			}
		})
	}
}
