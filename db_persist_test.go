package sti

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// persistSrc is the durability fixture: a symbol-typed recursive program, so
// recovery must restore symbol ordinals exactly for query output (which
// sorts by those ordinals) to come back byte-identical.
const persistSrc = `
.decl edge(x:symbol, y:symbol)
.decl path(x:symbol, y:symbol)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

// tinyPersist keeps segments and checkpoints small so short tests cross
// flush, compaction, and checkpoint boundaries.
func tinyPersist(dir string) Option {
	return WithPersistenceConfig(PersistenceConfig{
		Dir:           dir,
		SnapshotEvery: 3,
		FlushKeys:     16,
		MaxSegments:   2,
	})
}

// applyScript drives the same pseudo-random batch sequence (inserts and
// deletions, multiple relations' worth of symbols) against a database.
// Returns the batch count applied.
func applyScript(t *testing.T, db *Database, seed int64, batches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	node := func() string { return fmt.Sprintf("n%02d", rng.Intn(24)) }
	for i := 0; i < batches; i++ {
		b := db.NewBatch()
		for j := 0; j < 4+rng.Intn(5); j++ {
			b.Add("edge", node(), node())
		}
		if i%3 == 2 {
			b.Delete("edge", node(), node())
		}
		if err := db.Apply(b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

// queryAll renders every queryable observable of the database into one
// string: rows of both relations (text form), sizes, and a patterned query.
func queryAll(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, rel := range []string{"edge", "path"} {
		rows, err := db.QueryText(rel, nil)
		if err != nil {
			t.Fatalf("query %s: %v", rel, err)
		}
		fmt.Fprintf(&sb, "%s %d\n", rel, len(rows))
		for _, r := range rows {
			sb.WriteString(strings.Join(r, "\t"))
			sb.WriteByte('\n')
		}
	}
	if rows, err := db.Query("path", "n01", nil); err == nil {
		fmt.Fprintf(&sb, "probe %v\n", rows)
	} else {
		t.Fatalf("probe query: %v", err)
	}
	return sb.String()
}

// TestPersistMatchesMemory is the acceptance property: a persistent
// database answers every query byte-identically to an in-memory database
// fed the same batches, across Close/reopen, and across a simulated crash
// (WAL present, no clean final snapshot).
func TestPersistMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	const seed, batches = 99, 10

	mem, err := MustParse(persistSrc).Open()
	if err != nil {
		t.Fatalf("open memory db: %v", err)
	}
	defer mem.Close()
	applyScript(t, mem, seed, batches)
	want := queryAll(t, mem)

	// Live persistent database.
	p1 := MustParse(persistSrc)
	db1, err := p1.Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("open persistent db: %v", err)
	}
	applyScript(t, db1, seed, batches)
	if got := queryAll(t, db1); got != want {
		t.Fatalf("live persistent output differs from memory:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	st := db1.Stats()
	if st.Persist == nil {
		t.Fatal("Stats().Persist is nil on a persistent database")
	}
	if st.Persist.LiveKeys == 0 || st.Persist.Tables == 0 {
		t.Fatalf("durable tier unused: %+v", st.Persist)
	}
	if st.Persist.Snapshots == 0 {
		t.Fatal("no checkpoints taken despite SnapshotEvery=3")
	}
	if err := db1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Clean reopen: recovery from the final snapshot.
	p2 := MustParse(persistSrc)
	db2, err := p2.Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := queryAll(t, db2); got != want {
		t.Fatalf("reopened output differs from memory:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := db2.Stats(); !st.Persist.Recovered {
		t.Fatal("reopen did not report Recovered")
	}

	// More batches, then a crash: no Close, WAL tail must carry the delta.
	applyScript(t, db2, seed+1, 4)
	mem2, _ := MustParse(persistSrc).Open()
	defer mem2.Close()
	applyScript(t, mem2, seed, batches)
	applyScript(t, mem2, seed+1, 4)
	want2 := queryAll(t, mem2)
	if got := queryAll(t, db2); got != want2 {
		t.Fatalf("pre-crash output differs from memory reference")
	}
	db2.abandon()

	db3, err := MustParse(persistSrc).Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db3.Close()
	st3 := db3.Stats()
	if !st3.Persist.Recovered {
		t.Fatal("crash reopen did not report Recovered")
	}
	if st3.Persist.RecoveredRecords == 0 {
		t.Fatal("crash reopen replayed no WAL records; the crash tail was lost")
	}
	if got := queryAll(t, db3); got != want2 {
		t.Fatalf("crash-recovered output differs from memory:\n--- got ---\n%s--- want ---\n%s", got, want2)
	}
}

// TestPersistIncrementalPathSurvives checks that the persistent tier rides
// the incremental update/delete entry points (not permanent recompute
// fallback), and that delete propagation works on durable tables.
func TestPersistIncrementalPathSurvives(t *testing.T) {
	db, err := MustParse(persistSrc).Open(tinyPersist(t.TempDir()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if err := db.Apply(db.NewBatch().Add("edge", "a", "b").Add("edge", "b", "c")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := db.Apply(db.NewBatch().Delete("edge", "b", "c")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	st := db.Stats()
	if st.AppliesIncremental != 2 {
		t.Fatalf("want 2 incremental applies, got %+v", st)
	}
	rows, err := db.Query("path")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "a" || rows[0][1] != "b" {
		t.Fatalf("path after delete = %v, want [[a b]]", rows)
	}
}

// TestPersistGatesEqrel verifies an input eqrel relation is kept on the
// in-memory tier with a recorded reason, while the database still works.
func TestPersistGatesEqrel(t *testing.T) {
	src := `
.decl same(x:number, y:number) eqrel
.decl edge(x:number, y:number)
.decl out(x:number, y:number)
.input same
.input edge
.output out
out(x, y) :- same(x, y), edge(x, y).
`
	db, err := MustParse(src).Open(tinyPersist(t.TempDir()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if err := db.Apply(db.NewBatch().Add("same", 1, 2).Add("edge", 1, 2)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	st := db.Stats()
	if st.Persist == nil {
		t.Fatal("no persist stats")
	}
	reason, gated := st.Persist.Gated["same"]
	if !gated || !strings.Contains(reason, "eqrel") {
		t.Fatalf("eqrel relation not gated: %+v", st.Persist.Gated)
	}
	if _, gated := st.Persist.Gated["edge"]; gated {
		t.Fatalf("plain input relation gated: %+v", st.Persist.Gated)
	}
	if n, _ := db.Size("out"); n != 1 {
		t.Fatalf("out size = %d, want 1", n)
	}
}

// TestPersistManifestRejectsForeignProgram pins a data directory to the
// program that created it.
func TestPersistManifestRejectsForeignProgram(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Close()
	other := MustParse(`.decl r(x:number)` + "\n" + `.input r` + "\n" + `.output r`)
	if _, err := other.Open(WithPersistence(dir)); err == nil {
		t.Fatal("foreign program opened an existing data directory")
	} else if !strings.Contains(err.Error(), "different program") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPersistDirLock ensures two databases cannot share a data directory.
func TestPersistDirLock(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if _, err := MustParse(persistSrc).Open(WithPersistence(dir)); err == nil {
		t.Fatal("second database opened a locked data directory")
	}
}

// TestPersistTornWALTail corrupts the WAL's final record in place and
// checks recovery drops exactly that batch (whose Apply, in a real crash,
// never returned) while keeping all earlier ones.
func TestPersistTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistenceConfig(PersistenceConfig{
		Dir:           dir,
		SnapshotEvery: -1, // keep everything in the WAL
	}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := db.Apply(db.NewBatch().Add("edge", "a", "b")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := db.Apply(db.NewBatch().Add("edge", "b", "c")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	db.abandon()

	// Tear the last record.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	raw, err := os.ReadFile(wals[len(wals)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wals[len(wals)-1], raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := MustParse(persistSrc).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("reopen with torn wal: %v", err)
	}
	defer db2.Close()
	rows, err := db2.Query("edge")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "a" {
		t.Fatalf("after torn tail, edge = %v, want just [a b]", rows)
	}
}

// TestPersistLargerBatchesCrossSegments pushes enough tuples through tiny
// segment settings to force flushes and compactions, then validates against
// an in-memory reference.
func TestPersistLargerBatchesCrossSegments(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl reach(x:number, y:number)
.input edge
.output reach
reach(x, y) :- edge(x, y).
reach(x, z) :- reach(x, y), edge(y, z).
`
	dir := t.TempDir()
	db, err := MustParse(src).Open(WithPersistenceConfig(PersistenceConfig{
		Dir: dir, SnapshotEvery: 2, FlushKeys: 32, MaxSegments: 2,
	}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mem, _ := MustParse(src).Open()
	defer mem.Close()

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		bp, bm := db.NewBatch(), mem.NewBatch()
		for j := 0; j < 200; j++ {
			x, y := rng.Intn(60), rng.Intn(60)
			bp.Add("edge", x, y)
			bm.Add("edge", x, y)
		}
		if err := db.Apply(bp); err != nil {
			t.Fatalf("apply persistent %d: %v", i, err)
		}
		if err := mem.Apply(bm); err != nil {
			t.Fatalf("apply memory %d: %v", i, err)
		}
	}
	check := func(d *Database, tag string) {
		t.Helper()
		for _, rel := range []string{"edge", "reach"} {
			got, err := d.Query(rel)
			if err != nil {
				t.Fatalf("%s query %s: %v", tag, rel, err)
			}
			want, err := mem.Query(rel)
			if err != nil {
				t.Fatalf("memory query %s: %v", rel, err)
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Fatalf("%s: %s differs (%d vs %d rows)", tag, rel, len(got), len(want))
			}
		}
	}
	check(db, "live")
	if st := db.Stats(); st.Persist.Flushes == 0 {
		t.Fatalf("no segment flushes despite FlushKeys=32: %+v", st.Persist)
	}
	db.Close()

	db2, err := MustParse(src).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	check(db2, "reopened")
}

// TestPersistConcurrentReadersDuringApply runs bound Query, snapshot Query
// and snapshot Scan readers against a durable database while a writer
// streams insert and delete batches. edge lives on the persistent tier,
// whose cursors read the memtable in place, and the tiny flush threshold
// puts flushes and background compactions under the readers. Every read
// must see one whole fixpoint: a chain of 4k edges and its closure. Under
// -race it is the durable tier's concurrency test.
func TestPersistConcurrentReadersDuringApply(t *testing.T) {
	db, err := tcProgram(t, "btree").Open(tinyPersist(t.TempDir()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if st := db.Stats(); st.Persist == nil || st.Persist.Tables == 0 {
		t.Fatalf("edge is not on the persistent tier: %+v", st.Persist)
	}

	const segments = 12
	edges := chainEdges(segments * 4)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				x := rng.Intn(len(edges))
				switch rng.Intn(3) {
				case 0:
					rows, err := db.Query("edge", x, nil)
					if err != nil {
						t.Errorf("query edge: %v", err)
						return
					}
					if len(rows) > 1 || len(rows) == 1 && fmt.Sprint(rows[0]) != fmt.Sprint([]int{x, x + 1}) {
						t.Errorf("edge(%d, _) = %v", x, rows)
						return
					}
				case 1:
					rows, err := db.Query("path", x, nil)
					if err != nil {
						t.Errorf("query path: %v", err)
						return
					}
					for i, row := range rows {
						if fmt.Sprint(row) != fmt.Sprint([]int{x, x + 1 + i}) {
							t.Errorf("path(%d, _) row %d = %v: not a chain closure", x, i, row)
							return
						}
					}
				case 2:
					s := db.Snapshot()
					es, err1 := s.Scan("edge", 0, len(edges))
					ps, err2 := s.Query("path")
					s.Release()
					if err1 != nil || err2 != nil {
						t.Errorf("snapshot reads: %v, %v", err1, err2)
						return
					}
					if n := len(es); n%4 != 0 || len(ps) != n*(n+1)/2 {
						t.Errorf("snapshot saw %d edges and %d paths: not one fixpoint", n, len(ps))
						return
					}
				}
			}
		}(int64(r + 1))
	}
	for s := 0; s < segments; s++ {
		seg := edges[s*4 : (s+1)*4]
		applyEdges(t, db, seg)
		if s%3 == 2 {
			// Retract the segment and add it back: tombstones, then
			// re-inserts over them.
			b := db.NewBatch()
			for _, e := range seg {
				b.Delete("edge", e[0], e[1])
			}
			if err := db.Apply(b); err != nil {
				t.Fatalf("delete: %v", err)
			}
			applyEdges(t, db, seg)
		}
	}
	close(done)
	wg.Wait()
	n := len(edges)
	if got, _ := db.Size("path"); got != n*(n+1)/2 {
		t.Fatalf("final path size = %d, want %d", got, n*(n+1)/2)
	}
	if st := db.Stats().Persist; st.Flushes == 0 {
		t.Fatalf("no memtable flush happened under the readers: %+v", st)
	}
}

// TestPersistRecoverySplit checks that a reopen reports where its recovery
// time went: snapshot load, WAL replay, and fixpoint recomputation.
func TestPersistRecoverySplit(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	applyScript(t, db, 3, 5)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db, err = MustParse(persistSrc).Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	st := db.Stats().Persist
	if !st.Recovered {
		t.Fatalf("reopen did not recover: %+v", st)
	}
	if st.SnapshotLoad <= 0 || st.WALReplay <= 0 || st.Recompute <= 0 {
		t.Fatalf("recovery split not set: snapshot %v, wal %v, recompute %v",
			st.SnapshotLoad, st.WALReplay, st.Recompute)
	}
}
