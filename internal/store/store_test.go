package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sti/internal/tuple"
)

func key4(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTableAgainstMap drives a table with a random op mix and checks every
// observable (membership, size, full-range, sub-range and prefix cursors)
// against a plain map sorted with bytes.Compare, with a flush threshold
// small enough to exercise segments, tombstone shadowing, and compaction
// swaps. The arity-3 run draws words that straddle byte boundaries, so the
// memtable's fixed-arity key order must agree with the segments' byte
// order.
func TestTableAgainstMap(t *testing.T) {
	t.Run("width4", func(t *testing.T) {
		testTableAgainstMap(t, 4, func(rng *rand.Rand) []byte {
			return key4(uint32(rng.Intn(512)))
		})
	})
	t.Run("width12", func(t *testing.T) {
		words := []uint32{0, 1, 0xfe, 0xff, 0x100, 0x101, 0xffff, 0x10000,
			0xffffff, 0x1000000, 0xfffffffe, 0xffffffff}
		testTableAgainstMap(t, 12, func(rng *rand.Rand) []byte {
			return tuple.EncodedKey(tuple.Tuple{
				words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))],
			})
		})
	})
}

func testTableAgainstMap(t *testing.T, keyLen int, gen func(*rand.Rand) []byte) {
	s := openTest(t, Options{FlushKeys: 64, MaxSegments: 2})
	tab, err := s.Table("r", keyLen)
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	model := map[string]bool{}
	// checkRange compares a cursor over [lo, hi) with the model.
	checkRange := func(step int, lo, hi []byte) {
		t.Helper()
		var want []string
		for k := range model {
			if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare([]byte(want[i]), []byte(want[j])) < 0 })
		cur := tab.Range(lo, hi)
		for i, w := range want {
			k, ok := cur.Next()
			if !ok {
				t.Fatalf("step %d [%x, %x): cursor ended at %d, want %d keys", step, lo, hi, i, len(want))
			}
			if !bytes.Equal(k, []byte(w)) {
				t.Fatalf("step %d [%x, %x): cursor[%d]=%x want %x", step, lo, hi, i, k, w)
			}
		}
		if k, ok := cur.Next(); ok {
			t.Fatalf("step %d [%x, %x): cursor yielded extra key %x", step, lo, hi, k)
		}
	}
	check := func(step int) {
		t.Helper()
		if got := tab.Len(); got != len(model) {
			t.Fatalf("step %d: Len=%d want %d", step, got, len(model))
		}
		checkRange(step, nil, nil)
		lo, hi := gen(rng), gen(rng)
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		checkRange(step, lo, hi)
		checkRange(step, lo, nil)
		// A prefix scan: the bounds are shorter than a key.
		p := lo[:tuple.KeyWidth]
		checkRange(step, p, tuple.PrefixSuccessor(p))
	}
	for step := 0; step < 4000; step++ {
		k := gen(rng)
		if rng.Intn(3) == 0 {
			if got := tab.Delete(k); got != model[string(k)] {
				t.Fatalf("step %d: Delete(%x)=%v want %v", step, k, got, model[string(k)])
			}
			delete(model, string(k))
		} else {
			if got := tab.Insert(k); got == model[string(k)] {
				t.Fatalf("step %d: Insert(%x)=%v want %v", step, k, got, !model[string(k)])
			}
			model[string(k)] = true
		}
		if c := tab.Contains(k); c != model[string(k)] {
			t.Fatalf("step %d: Contains(%x)=%v want %v", step, k, c, model[string(k)])
		}
		if step%251 == 0 {
			check(step)
		}
	}
	check(-1)

	// Clear drops everything, including on-disk runs.
	tab.Clear()
	if tab.Len() != 0 || tab.Contains(gen(rng)) {
		t.Fatal("Clear left live keys")
	}
	if _, ok := tab.Range(nil, nil).Next(); ok {
		t.Fatal("Clear left cursor-visible keys")
	}
}

// TestTableRejectsForeignKeyWidth checks that a table is only created for
// the key width of a tuple the memtable has a fixed-arity key type for.
func TestTableRejectsForeignKeyWidth(t *testing.T) {
	s := openTest(t, Options{})
	for _, keyLen := range []int{0, 3, 5, tuple.KeySize(tuple.MaxArity + 1)} {
		if _, err := s.Table(fmt.Sprintf("r%d", keyLen), keyLen); err == nil {
			t.Errorf("Table with keyLen %d succeeded", keyLen)
		}
	}
}

// TestCursorAfterWritePanics pins the cursor contract: a cursor reads the
// memtable in place, so every writer-context call on its table invalidates
// it, and using it afterwards panics instead of yielding a wrong answer.
// Reads and no-op writes leave it valid.
func TestCursorAfterWritePanics(t *testing.T) {
	writes := map[string]func(*Table){
		"insert": func(tab *Table) { tab.Insert(key4(1000)) },
		"delete": func(tab *Table) { tab.Delete(key4(3)) },
		"clear":  func(tab *Table) { tab.Clear() },
		"flush":  func(tab *Table) { tab.Flush() },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			s := openTest(t, Options{FlushKeys: 1 << 20})
			tab, _ := s.Table("r", 4)
			for i := 0; i < 10; i++ {
				tab.Insert(key4(uint32(i)))
			}
			cur := tab.Range(nil, nil)
			if k, ok := cur.Next(); !ok || binary.BigEndian.Uint32(k) != 0 {
				t.Fatalf("first key %x/%v", k, ok)
			}
			// Lookups, other cursors and writes that change nothing are not
			// writes to the table.
			tab.Contains(key4(5))
			tab.Range(key4(4), nil).Next()
			tab.Insert(key4(5))
			tab.Delete(key4(500))
			if k, ok := cur.Next(); !ok || binary.BigEndian.Uint32(k) != 1 {
				t.Fatalf("second key %x/%v", k, ok)
			}
			write(tab)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "used after a write") {
					t.Fatalf("Next after %s: recovered %v, want the stale-cursor panic", name, r)
				}
			}()
			cur.Next()
		})
	}
}

// TestTableHotPathAllocs pins the allocation-free point operations: a
// lookup and a duplicate insert decode the key on the stack.
func TestTableHotPathAllocs(t *testing.T) {
	s := openTest(t, Options{})
	tab, _ := s.Table("r", 8)
	k := tuple.EncodedKey(tuple.Tuple{1, 2})
	tab.Insert(k)
	if a := testing.AllocsPerRun(100, func() { tab.Contains(k) }); a != 0 {
		t.Errorf("Contains allocates %.1f per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { tab.Insert(k) }); a != 0 {
		t.Errorf("duplicate Insert allocates %.1f per call", a)
	}
}

// TestCompactionConverges forces many flushes and verifies the run count
// settles at one while contents stay intact.
func TestCompactionConverges(t *testing.T) {
	s := openTest(t, Options{FlushKeys: 32, MaxSegments: 2})
	tab, _ := s.Table("r", 4)
	const n = 2000
	for i := 0; i < n; i++ {
		tab.Insert(key4(uint32(i)))
	}
	// Deleting a slice creates tombstones that compaction must drop.
	for i := 0; i < n; i += 3 {
		tab.Delete(key4(uint32(i)))
	}
	if err := tab.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Drain pending compactions deterministically.
	s.mu.Lock()
	close(s.compactCh)
	s.mu.Unlock()
	s.wg.Wait()
	for tab.Segments() > 1 {
		if err := tab.compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
	}
	tab.mu.Lock()
	tab.sweepLocked()
	tab.mu.Unlock()
	want := 0
	for i := 0; i < n; i++ {
		live := i%3 != 0
		if live {
			want++
		}
		if tab.Contains(key4(uint32(i))) != live {
			t.Fatalf("after compaction: Contains(%d) != %v", i, live)
		}
	}
	if tab.Len() != want {
		t.Fatalf("after compaction: Len=%d want %d", tab.Len(), want)
	}
	// The compacted run must have shed the dropped tombstones on disk.
	ents, err := os.ReadDir(filepath.Join(s.dir, TablesDir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("want 1 segment file after sweep, have %v", names)
	}
	// Make Close safe after we closed the channel ourselves.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, tb := range s.tables {
		tb.close()
	}
	unlockFile(s.lock)
	s.lock.Close()
}

func TestDirLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of locked dir succeeded")
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestTablesDirIsWipedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{FlushKeys: 4})
	tab, _ := s.Table("r", 4)
	for i := 0; i < 32; i++ {
		tab.Insert(key4(uint32(i)))
	}
	tab.Flush()
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	tab2, _ := s2.Table("r", 4)
	if tab2.Len() != 0 {
		t.Fatalf("tables dir not wiped: Len=%d", tab2.Len())
	}
}

func TestWALReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir, 3)
	w, err := CreateWAL(path, false)
	if err != nil {
		t.Fatalf("CreateWAL: %v", err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	replay := func(p string) ([][]byte, int) {
		var got [][]byte
		n, err := ReplayWAL(p, func(b []byte) error {
			got = append(got, append([]byte(nil), b...))
			return nil
		})
		if err != nil {
			t.Fatalf("ReplayWAL: %v", err)
		}
		return got, n
	}
	got, n := replay(path)
	if n != len(want) {
		t.Fatalf("replay count %d want %d", n, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %q want %q", i, got[i], want[i])
		}
	}

	// Torn tails of every length lose only the final record.
	raw, _ := os.ReadFile(path)
	for cut := 1; cut <= 18; cut += 4 {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		os.WriteFile(torn, raw[:len(raw)-cut], 0o644)
		_, n := replay(torn)
		if n != len(want)-1 {
			t.Fatalf("torn by %d: replayed %d want %d", cut, n, len(want)-1)
		}
	}

	// Corruption mid-log is an error, not silence. Byte 25 sits inside the
	// second record's payload (records are 4+10+4 bytes).
	bad := append([]byte(nil), raw...)
	bad[25] ^= 0xFF
	badPath := filepath.Join(dir, "bad.log")
	os.WriteFile(badPath, bad, 0o644)
	if _, err := ReplayWAL(badPath, func([]byte) error { return nil }); err == nil {
		t.Fatal("mid-log corruption replayed without error")
	}

	if gens, _ := ListWALs(dir); len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("ListWALs = %v, want [3]", gens)
	}
}

func TestSnapshotRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	payload := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(payload)
	path := SnapshotPath(dir, 7)
	if err := WriteSnapshot(path, payload); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("snapshot payload mismatch")
	}
	if gens, _ := ListSnapshots(dir); len(gens) != 1 || gens[0] != 7 {
		t.Fatalf("ListSnapshots = %v, want [7]", gens)
	}
	// A truncated snapshot must be rejected, not silently half-read.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-10], 0o644)
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("truncated snapshot read succeeded")
	}
	// Flipped payload byte must fail the checksum.
	raw[30] ^= 0x01
	os.WriteFile(path, raw, 0o644)
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("corrupted snapshot read succeeded")
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.seg")
	mem := newMemtable(4)
	mem.put(tuple.Words{1}, opSet)
	mem.put(tuple.Words{2}, opSet)
	if _, err := writeSegment(path, 4, &memSource{it: mem.iter(tuple.Words{})}); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	if g, err := openSegment(path); err != nil {
		t.Fatalf("openSegment: %v", err)
	} else {
		g.close()
	}
	raw, _ := os.ReadFile(path)
	raw[segHeaderSize] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	if g, err := openSegment(path); err == nil {
		g.close()
		t.Fatal("corrupted segment opened")
	}
}

func TestSampleKeysPartitions(t *testing.T) {
	for _, tc := range []struct {
		name      string
		flushKeys int
		segments  bool
	}{
		{"segments", 256, true},
		{"memtable", 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, Options{FlushKeys: tc.flushKeys})
			tab, _ := s.Table("r", 4)
			for i := 0; i < 1000; i++ {
				tab.Insert(key4(uint32(i * 3)))
			}
			// Tombstones in the memtable are not live keys to split at.
			for i := 0; i < 1000; i += 7 {
				tab.Delete(key4(uint32(i * 3)))
			}
			if got := tab.Segments() > 0; got != tc.segments {
				t.Fatalf("Segments()=%d, want segments=%v", tab.Segments(), tc.segments)
			}
			seps := tab.SampleKeys(4)
			if len(seps) == 0 || len(seps) > 3 {
				t.Fatalf("SampleKeys(4) returned %d separators for a %d-key table", len(seps), tab.Len())
			}
			for i := 1; i < len(seps); i++ {
				if bytes.Compare(seps[i-1], seps[i]) >= 0 {
					t.Fatalf("separators not ascending: %x", seps)
				}
			}
			// The partitions cover every live key exactly once, in order.
			var lo []byte
			var got []uint32
			for i := 0; i <= len(seps); i++ {
				var hi []byte
				if i < len(seps) {
					hi = seps[i]
				}
				cur := tab.Range(lo, hi)
				for k, ok := cur.Next(); ok; k, ok = cur.Next() {
					got = append(got, binary.BigEndian.Uint32(k))
				}
				lo = hi
			}
			if len(got) != tab.Len() {
				t.Fatalf("partitions yielded %d keys, table has %d", len(got), tab.Len())
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("partitions out of order at %d: %d then %d", i, got[i-1], got[i])
				}
			}
			if tab.SampleKeys(1) != nil {
				t.Fatal("SampleKeys(1) split the table")
			}
		})
	}
}
