// Package store implements the persistent tier behind the de-specialization
// seam: an embedded, single-process, append-only tuple store. Each relation
// order maps to a Table — an LSM-style stack of one in-memory memtable over
// immutable sorted segment runs, keyed by the order-preserving fixed-width
// encoding from internal/tuple, so point lookups, prefix scans, and range
// partitioning all run as byte comparisons directly on mapped files.
//
// The memtable is internal/btree instantiated per arity over the
// fixed-arity key types (tuple.Tup1..Tup16) that the relation layer's
// B-tree indexes use, so it is ordered at all times: reads, cursors and
// flushes never sort. Cursors read it in place; a write to a table
// invalidates that table's cursors, as a mutation invalidates a btree
// iterator, and a stale cursor panics rather than answer from the changed
// tree (see Cursor).
//
// The store holds only the *indexes* (a rebuildable cache, wiped on open);
// durability itself comes from the write-ahead log and snapshot files the
// db layer maintains with the CreateWAL/ReplayWAL and WriteSnapshot/
// ReadSnapshot helpers in this package.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sti/internal/tuple"
)

// Options tune a store. Zero values select the defaults.
type Options struct {
	// Fsync forces every WAL append to stable storage (see CreateWAL; the
	// store records the choice so tables and the db layer agree).
	Fsync bool
	// FlushKeys is the memtable size (in keys) that triggers a segment
	// flush. Default 32768.
	FlushKeys int
	// MaxSegments is the run count above which a table schedules background
	// compaction. Default 4.
	MaxSegments int
}

func (o Options) withDefaults() Options {
	if o.FlushKeys <= 0 {
		o.FlushKeys = 32768
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 4
	}
	return o
}

// Store owns one data directory's table cache and its background compactor.
type Store struct {
	dir  string
	opts Options
	lock *os.File

	mu     sync.Mutex
	tables map[string]*Table
	closed bool

	compactCh chan *Table
	wg        sync.WaitGroup

	flushes     atomic.Int64
	compactions atomic.Int64
	fsyncs      atomic.Int64
}

// TablesDir is the subdirectory holding segment files. It is a cache: the
// db layer rebuilds every table from snapshot + WAL on open, so the whole
// subtree is wiped each time a store opens.
const TablesDir = "tables"

// LockName is the advisory lock file guarding a data directory.
const LockName = "LOCK"

// Open prepares dir for use: creates it, takes the exclusive directory
// lock, clears the table cache, and starts the compactor.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(filepath.Join(dir, LockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(lf); err != nil {
		lf.Close()
		return nil, fmt.Errorf("store: data dir %s is locked by another process: %w", dir, err)
	}
	td := filepath.Join(dir, TablesDir)
	if err := os.RemoveAll(td); err != nil {
		unlockFile(lf)
		lf.Close()
		return nil, err
	}
	if err := os.MkdirAll(td, 0o755); err != nil {
		unlockFile(lf)
		lf.Close()
		return nil, err
	}
	// A crash during snapshot write can leave a temp file behind.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".tmp" {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	s := &Store{
		dir:       dir,
		opts:      opts.withDefaults(),
		lock:      lf,
		tables:    map[string]*Table{},
		compactCh: make(chan *Table, 128),
	}
	s.wg.Add(1)
	go s.compactor()
	return s, nil
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Options returns the effective (defaulted) options.
func (s *Store) Options() Options { return s.opts }

// Table returns the named table, creating its directory on first use. Names
// must be unique per (relation, order); the relation layer derives them.
// keyLen must be tuple.KeySize(n) for an arity n in 1..tuple.MaxArity.
func (s *Store) Table(name string, keyLen int) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: %s is closed", s.dir)
	}
	if t, ok := s.tables[name]; ok {
		if t.keyLen != keyLen {
			return nil, fmt.Errorf("store: table %s reopened with keyLen %d (have %d)", name, keyLen, t.keyLen)
		}
		return t, nil
	}
	mem := newMemtable(keyLen)
	if mem == nil {
		return nil, fmt.Errorf("store: table %s: keyLen %d is not the key width of a tuple of arity 1..%d",
			name, keyLen, tuple.MaxArity)
	}
	td := filepath.Join(s.dir, TablesDir, name)
	if err := os.MkdirAll(td, 0o755); err != nil {
		return nil, err
	}
	t := newTable(s, name, td, keyLen, mem)
	s.tables[name] = t
	return t, nil
}

// scheduleCompact queues t for background compaction. The caller has set
// t.compacting; when the queue is saturated the request is dropped and the
// flag reset — the next flush simply re-triggers it.
func (s *Store) scheduleCompact(t *Table) {
	select {
	case s.compactCh <- t:
	default:
		t.mu.Lock()
		t.compacting = false
		t.mu.Unlock()
	}
}

func (s *Store) compactor() {
	defer s.wg.Done()
	for t := range s.compactCh {
		// Best-effort: a failed compaction leaves the stack as it was and
		// the next flush retries.
		_ = t.compact()
	}
}

// Stats is a point-in-time summary of the store's structural state.
type Stats struct {
	Tables      int
	Segments    int
	LiveKeys    int
	Flushes     int64
	Compactions int64
	Fsyncs      int64
}

// Stats gathers counters across all tables.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	tabs := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tabs = append(tabs, t)
	}
	s.mu.Unlock()
	st := Stats{
		Tables:      len(tabs),
		Flushes:     s.flushes.Load(),
		Compactions: s.compactions.Load(),
		Fsyncs:      s.fsyncs.Load(),
	}
	for _, t := range tabs {
		st.Segments += t.Segments()
		st.LiveKeys += t.Len()
	}
	return st
}

// Close stops the compactor, unmaps every table, and releases the directory
// lock. Tables are not flushed: their contents are a cache the next open
// rebuilds.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.compactCh)
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for _, t := range s.tables {
		t.close()
	}
	s.tables = map[string]*Table{}
	s.mu.Unlock()
	unlockFile(s.lock)
	return s.lock.Close()
}
