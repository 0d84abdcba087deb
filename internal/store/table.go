package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sti/internal/tuple"
)

// Table is one durable keyspace: an LSM-style stack of an in-memory
// memtable over immutable sorted segment runs. Keys are fixed-width
// order-preserving encodings (internal/tuple codec) of tuples of one arity,
// so all searches — point, prefix, and range — are byte comparisons on
// segments, and the memtable is an internal/btree instantiation over the
// arity's fixed key type.
//
// Concurrency contract (the de-specialization layer's): one writer at a
// time mutates (Insert/Delete/Clear/Flush), any number of readers may run
// point lookups and cursors concurrently with each other, and readers never
// overlap a writer (the engine's epoch guard serializes them). A cursor
// reads the memtable in place, so a write to its table invalidates it, as a
// mutation invalidates a btree iterator; the table detects a cursor used
// after a write and panics (see Cursor). Background compaction is the one
// true concurrent mutator; it only swaps the segment list under the table
// lock, and retired segments stay mapped until a writer-context safe point.
type Table struct {
	store  *Store
	name   string
	dir    string
	keyLen int

	mu   sync.RWMutex
	mem  memtable   // newest level: keys written since the last flush
	segs []*segment // oldest first
	live int        // exact number of live keys
	seq  uint64     // next segment file number
	gen  uint64     // bumped by Clear; stale compactions discard
	// writes counts writer-context mutations; a cursor records it and
	// refuses to run once it has moved.
	writes uint64
	// compacting marks an in-flight background merge; retired segments are
	// only unmapped when it is false (the compactor may still read them).
	compacting bool
	retired    []*segment
}

func newTable(s *Store, name, dir string, keyLen int, mem memtable) *Table {
	return &Table{store: s, name: name, dir: dir, keyLen: keyLen, mem: mem}
}

// Name returns the table's registered name.
func (t *Table) Name() string { return t.name }

// KeyLen returns the fixed encoded key width.
func (t *Table) KeyLen() int { return t.keyLen }

// Len returns the number of live keys.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Segments reports the current number of on-disk runs.
func (t *Table) Segments() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// Insert adds a key, reporting whether it was not live before. The writer
// contract applies.
//
// The memtable insert doubles as its lookup, so the common insert descends
// the memtable once. A key found live only in a segment keeps the memtable
// entry the insert left: it shadows an identical live entry, so it changes
// no answer, and flushes and compactions fold it away.
func (t *Table) Insert(key []byte) bool {
	w := t.words(key)
	t.mu.Lock()
	prev, had := t.mem.put(w, opSet)
	if had && prev == opSet {
		t.mu.Unlock()
		return false
	}
	t.writes++
	added := had || !t.segsLiveLocked(key)
	if added {
		t.live++
	}
	full := t.mem.len() >= t.store.opts.FlushKeys
	t.mu.Unlock()
	if full {
		t.Flush()
	}
	return added
}

// Delete removes a key, reporting whether it was live.
func (t *Table) Delete(key []byte) bool {
	w := t.words(key)
	t.mu.Lock()
	if !t.containsLocked(key, w) {
		t.mu.Unlock()
		return false
	}
	t.mem.put(w, opDel)
	t.writes++
	t.live--
	full := t.mem.len() >= t.store.opts.FlushKeys
	t.mu.Unlock()
	if full {
		t.Flush()
	}
	return true
}

// Contains reports whether key is live.
func (t *Table) Contains(key []byte) bool {
	w := t.words(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.containsLocked(key, w)
}

// words decodes key into the memtable's key form. A bound shorter than a
// key (a prefix) is padded with zero words: the least key it precedes.
func (t *Table) words(key []byte) (w tuple.Words) {
	n := t.keyLen / tuple.KeyWidth
	if len(key) == t.keyLen {
		tuple.DecodeKey(w[:n], key)
		return w
	}
	var full [tuple.MaxArity * tuple.KeyWidth]byte
	copy(full[:], key)
	tuple.DecodeKey(w[:n], full[:])
	return w
}

// containsLocked reports whether key, decoded in w, is live.
func (t *Table) containsLocked(key []byte, w tuple.Words) bool {
	if op, ok := t.mem.get(w); ok {
		return op == opSet
	}
	return t.segsLiveLocked(key)
}

// segsLiveLocked reports whether key is live in the segments, ignoring the
// memtable.
func (t *Table) segsLiveLocked(key []byte) bool {
	for i := len(t.segs) - 1; i >= 0; i-- {
		if op, ok := t.segs[i].find(key); ok {
			return op == opSet
		}
	}
	return false
}

// Clear drops every key. Runs in writer context: live reader cursors are
// excluded by the caller, so current segments can retire; an in-flight
// compaction is invalidated by the generation bump and its retired inputs
// are swept at the next writer-context safe point.
func (t *Table) Clear() {
	t.mu.Lock()
	t.mem.reset()
	t.writes++
	t.retired = append(t.retired, t.segs...)
	t.segs = nil
	t.live = 0
	t.gen++
	t.sweepLocked()
	t.mu.Unlock()
}

// sweepLocked unmaps and unlinks retired segments. Only valid in writer
// context (no reader cursors) and only when no compaction is in flight.
func (t *Table) sweepLocked() {
	if t.compacting || len(t.retired) == 0 {
		return
	}
	for _, g := range t.retired {
		g.close()
		os.Remove(g.path)
	}
	t.retired = nil
}

// Flush streams the memtable, in key order, to a new segment and clears it.
// A flush of an empty memtable is a no-op. Tombstones are dropped when no
// older run could resurrect the key. Writer context only.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writes++
	t.sweepLocked()
	if t.mem.len() == 0 {
		return nil
	}
	src := &memSource{it: t.mem.iter(tuple.Words{}), dropDels: len(t.segs) == 0}
	path := filepath.Join(t.dir, fmt.Sprintf("seg-%08d.seg", t.seq))
	n, err := writeSegment(path, t.keyLen, src)
	if err != nil {
		return fmt.Errorf("store: flush %s: %w", t.name, err)
	}
	t.seq++
	t.store.flushes.Add(1)
	t.store.fsyncs.Add(1)
	if n == 0 {
		os.Remove(path)
		t.mem.reset()
		return nil
	}
	g, err := openSegment(path)
	if err != nil {
		return fmt.Errorf("store: reopen flushed %s: %w", t.name, err)
	}
	t.segs = append(t.segs, g)
	t.mem.reset()
	if len(t.segs) > t.store.opts.MaxSegments && !t.compacting {
		t.compacting = true
		t.store.scheduleCompact(t)
	}
	return nil
}

// SampleKeys returns up to n-1 ascending separator keys that split the
// table into roughly equal ranges, for parallel partitioned scans. It may
// return fewer (or none) when the table is small.
func (t *Table) SampleKeys(n int) [][]byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Sample the largest run: it dominates the key distribution.
	var best *segment
	for _, g := range t.segs {
		if best == nil || g.count > best.count {
			best = g
		}
	}
	if best == nil || best.count < t.mem.len() {
		if n <= 1 || t.mem.len() < 2*n {
			return nil
		}
		return t.mem.separators(n)
	}
	if n <= 1 || best.count < 2*n {
		return nil
	}
	var out [][]byte
	for i := 1; i < n; i++ {
		k := best.key(i * best.count / n)
		if len(out) > 0 && bytes.Equal(out[len(out)-1], k) {
			continue
		}
		out = append(out, append([]byte(nil), k...))
	}
	return out
}

func (t *Table) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, g := range t.retired {
		g.close()
	}
	t.retired = nil
	for _, g := range t.segs {
		g.close()
	}
	t.segs = nil
}
