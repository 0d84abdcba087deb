package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// k2 is a 2-element key for tests.
type k2 [2]uint32

func (a k2) Cmp(b k2) int {
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

func collect(t *Tree[k2]) []k2 {
	var out []k2
	t.ForEach(func(k k2) bool { out = append(out, k); return true })
	return out
}

func collectIter(it Iter[k2]) []k2 { //nolint:gocritic // iterators are value types seeded by the tree
	return drain(&it)
}

func drain(it *Iter[k2]) []k2 {
	var out []k2
	for {
		k, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

func sortedUnique(keys []k2) []k2 {
	sort.Slice(keys, func(i, j int) bool { return keys[i].Cmp(keys[j]) < 0 })
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New[k2]()
	if !tr.Empty() || tr.Size() != 0 {
		t.Fatalf("new tree not empty: size=%d", tr.Size())
	}
	if tr.Contains(k2{1, 2}) {
		t.Error("empty tree contains a key")
	}
	if got := collect(tr); len(got) != 0 {
		t.Errorf("ForEach on empty tree yielded %v", got)
	}
	it := tr.Iter()
	if _, ok := it.Next(); ok {
		t.Error("iterator on empty tree yielded a key")
	}
}

func TestInsertReportsNew(t *testing.T) {
	tr := New[k2]()
	if !tr.Insert(k2{1, 2}) {
		t.Error("first insert not reported new")
	}
	if tr.Insert(k2{1, 2}) {
		t.Error("duplicate insert reported new")
	}
	if tr.Size() != 1 {
		t.Errorf("size = %d, want 1", tr.Size())
	}
}

func TestInsertManyAscending(t *testing.T) {
	tr := New[k2]()
	const n = 2000
	for i := 0; i < n; i++ {
		if !tr.Insert(k2{uint32(i), 0}) {
			t.Fatalf("insert %d reported duplicate", i)
		}
	}
	if tr.Size() != n {
		t.Fatalf("size = %d, want %d", tr.Size(), n)
	}
	got := collect(tr)
	for i, k := range got {
		if k != (k2{uint32(i), 0}) {
			t.Fatalf("position %d: got %v", i, k)
		}
	}
}

func TestInsertManyDescending(t *testing.T) {
	tr := New[k2]()
	const n = 2000
	for i := n - 1; i >= 0; i-- {
		tr.Insert(k2{uint32(i), 0})
	}
	got := collect(tr)
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, k := range got {
		if k[0] != uint32(i) {
			t.Fatalf("position %d: got %v", i, k)
		}
	}
}

func TestRandomAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New[k2]()
	model := map[k2]bool{}
	for i := 0; i < 20000; i++ {
		k := k2{uint32(rng.Intn(500)), uint32(rng.Intn(500))}
		newTree := tr.Insert(k)
		newModel := !model[k]
		model[k] = true
		if newTree != newModel {
			t.Fatalf("insert %v: tree says new=%v, model says %v", k, newTree, newModel)
		}
	}
	if tr.Size() != len(model) {
		t.Fatalf("size = %d, model = %d", tr.Size(), len(model))
	}
	// Membership agrees, including absent keys.
	for i := 0; i < 5000; i++ {
		k := k2{uint32(rng.Intn(600)), uint32(rng.Intn(600))}
		if tr.Contains(k) != model[k] {
			t.Fatalf("contains %v: tree=%v model=%v", k, tr.Contains(k), model[k])
		}
	}
	// Enumeration is sorted and complete.
	got := collect(tr)
	if len(got) != len(model) {
		t.Fatalf("enumerated %d keys, model has %d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Cmp(got[i]) >= 0 {
			t.Fatalf("out of order at %d: %v >= %v", i, got[i-1], got[i])
		}
	}
	for _, k := range got {
		if !model[k] {
			t.Fatalf("enumerated key %v not in model", k)
		}
	}
	// Iter matches ForEach.
	if it := collectIter(tr.Iter()); len(it) != len(got) {
		t.Fatalf("Iter yielded %d keys, ForEach %d", len(it), len(got))
	}
}

func TestSeek(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 100; i++ {
		tr.Insert(k2{uint32(2 * i), 0}) // even keys 0..198
	}
	tests := []struct {
		lo    k2
		first k2
		count int
	}{
		{k2{0, 0}, k2{0, 0}, 100},
		{k2{1, 0}, k2{2, 0}, 99}, // between keys
		{k2{2, 0}, k2{2, 0}, 99}, // exact
		{k2{197, 0}, k2{198, 0}, 1},
		{k2{198, 1}, k2{}, 0}, // past the end
		{k2{199, 0}, k2{}, 0},
	}
	for _, tc := range tests {
		got := collectIter(tr.Seek(tc.lo))
		if len(got) != tc.count {
			t.Errorf("Seek(%v): %d keys, want %d", tc.lo, len(got), tc.count)
			continue
		}
		if tc.count > 0 && got[0] != tc.first {
			t.Errorf("Seek(%v): first = %v, want %v", tc.lo, got[0], tc.first)
		}
	}
}

func TestRange(t *testing.T) {
	tr := New[k2]()
	for a := uint32(0); a < 50; a++ {
		for b := uint32(0); b < 4; b++ {
			tr.Insert(k2{a, b})
		}
	}
	// Prefix query a=7: lo={7,0}, hi={7,max}.
	got := collectIter(tr.Range(k2{7, 0}, k2{7, ^uint32(0)}))
	if len(got) != 4 {
		t.Fatalf("range a=7: %d keys, want 4", len(got))
	}
	for i, k := range got {
		if k != (k2{7, uint32(i)}) {
			t.Fatalf("range a=7 position %d: %v", i, k)
		}
	}
	// Empty range.
	if got := collectIter(tr.Range(k2{50, 0}, k2{50, ^uint32(0)})); len(got) != 0 {
		t.Fatalf("range a=50 should be empty, got %v", got)
	}
	// Multi-prefix range.
	got = collectIter(tr.Range(k2{10, 0}, k2{12, ^uint32(0)}))
	if len(got) != 12 {
		t.Fatalf("range 10..12: %d keys, want 12", len(got))
	}
}

func TestClearAndReuse(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 100; i++ {
		tr.Insert(k2{uint32(i), 0})
	}
	tr.Clear()
	if !tr.Empty() {
		t.Fatal("tree not empty after Clear")
	}
	if tr.Contains(k2{5, 0}) {
		t.Fatal("cleared tree contains a key")
	}
	if !tr.Insert(k2{5, 0}) {
		t.Fatal("insert after clear not reported new")
	}
	if tr.Size() != 1 {
		t.Fatalf("size after clear+insert = %d", tr.Size())
	}
}

func TestSwap(t *testing.T) {
	a, b := New[k2](), New[k2]()
	a.Insert(k2{1, 0})
	a.Insert(k2{2, 0})
	b.Insert(k2{9, 9})
	a.Swap(b)
	if a.Size() != 1 || !a.Contains(k2{9, 9}) {
		t.Errorf("a after swap: size=%d", a.Size())
	}
	if b.Size() != 2 || !b.Contains(k2{1, 0}) || !b.Contains(k2{2, 0}) {
		t.Errorf("b after swap: size=%d", b.Size())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 100; i++ {
		tr.Insert(k2{uint32(i), 0})
	}
	n := 0
	tr.ForEach(func(k2) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("ForEach visited %d keys after early stop, want 10", n)
	}
}

// TestQuickSetSemantics drives random batches through the tree and checks
// set semantics against a sorted-unique reference.
func TestQuickSetSemantics(t *testing.T) {
	f := func(raw []uint32) bool {
		tr := New[k2]()
		var keys []k2
		for i := 0; i+1 < len(raw); i += 2 {
			k := k2{raw[i] % 64, raw[i+1] % 64}
			keys = append(keys, k)
			tr.Insert(k)
		}
		want := sortedUnique(keys)
		got := collect(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSeekConsistent checks that Seek(lo) yields exactly the sorted
// keys >= lo.
func TestQuickSeekConsistent(t *testing.T) {
	f := func(raw []uint32, lo0, lo1 uint32) bool {
		tr := New[k2]()
		var keys []k2
		for i := 0; i+1 < len(raw); i += 2 {
			k := k2{raw[i] % 32, raw[i+1] % 32}
			keys = append(keys, k)
			tr.Insert(k)
		}
		lo := k2{lo0 % 32, lo1 % 32}
		var want []k2
		for _, k := range sortedUnique(keys) {
			if k.Cmp(lo) >= 0 {
				want = append(want, k)
			}
		}
		got := collectIter(tr.Seek(lo))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIterDoesNotAllocate pins the inline descent path: seeking into a
// multi-level tree and draining the iterator allocates nothing.
func TestIterDoesNotAllocate(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 5000; i++ {
		tr.Insert(k2{uint32(i), uint32(i)})
	}
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		it := tr.Seek(k2{100, 0})
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
	})
	if allocs != 0 {
		t.Fatalf("Seek + full Next loop allocates %.1f per run", allocs)
	}
	if want := 21 * 4900; n != want {
		t.Fatalf("iterated %d keys, want %d", n, want)
	}
}
