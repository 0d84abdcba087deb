package store

import (
	"bytes"
	"fmt"
)

// Cursor enumerates live keys of a table in ascending order over the
// half-open range [lo, hi) (nil bounds are unbounded). It merges the
// memtable and every segment, newest level winning on key ties, and skips
// tombstoned keys. The yielded slice is only valid until the next call to
// Next.
//
// A cursor reads the table's levels in place: the memtable's B-trees and
// the segment list current at Range. Any writer-context call on its table
// (an Insert or Delete that writes the memtable, Clear, Flush) invalidates it,
// as a mutation invalidates a btree iterator. Next detects that and panics
// rather than return a wrong answer; under the table's concurrency
// contract readers finish before the next write, so it never fires.
type Cursor struct {
	t      *Table
	writes uint64 // t.writes at Range
	hi     []byte
	mem    memIter    // nil when the memtable was empty
	segs   []segLevel // newest first
	segBuf [4]segLevel
}

// segLevel is one segment positioned at its next candidate entry.
type segLevel struct {
	g *segment
	i int
}

// Range returns a cursor over [lo, hi). A bound may be shorter than a key
// (a prefix), but not longer.
func (t *Table) Range(lo, hi []byte) *Cursor {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Cursor{t: t, writes: t.writes, hi: hi}
	if t.mem.len() > 0 {
		c.mem = t.mem.iter(t.words(lo))
	}
	c.segs = c.segBuf[:0]
	for i := len(t.segs) - 1; i >= 0; i-- {
		g := t.segs[i]
		start := 0
		if lo != nil {
			start, _ = g.search(lo)
		}
		if start < g.count {
			c.segs = append(c.segs, segLevel{g: g, i: start})
		}
	}
	return c
}

// Next yields the next live key in range, or ok=false when exhausted.
func (c *Cursor) Next() ([]byte, bool) {
	if c.writes != c.t.writes {
		panic(fmt.Sprintf("store: cursor on table %s used after a write to the table", c.t.name))
	}
	for {
		// Find the minimal key across levels; the first (newest) level
		// holding it decides the op. The level count is small (memtable + a
		// compacted handful of segments), so a linear sweep beats heap
		// bookkeeping.
		var memKey, win []byte
		var op byte
		found := false
		if c.mem != nil {
			memKey, op, found = c.mem.peek()
			win = memKey
		}
		for si := range c.segs {
			s := &c.segs[si]
			if s.i >= s.g.count {
				continue
			}
			if k := s.g.key(s.i); !found || bytes.Compare(k, win) < 0 {
				win, op, found = k, s.g.op(s.i), true
			}
		}
		if !found {
			return nil, false
		}
		if c.hi != nil && bytes.Compare(win, c.hi) >= 0 {
			return nil, false
		}
		// Advance every level positioned at the winning key (shadowed older
		// entries are consumed together with the winner). Advancing the
		// memtable leaves memKey's bytes intact until its next peek.
		if memKey != nil && bytes.Equal(memKey, win) {
			c.mem.advance()
		}
		for si := range c.segs {
			s := &c.segs[si]
			if s.i < s.g.count && bytes.Equal(s.g.key(s.i), win) {
				s.i++
			}
		}
		if op == opSet {
			return win, true
		}
	}
}
