package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"sti"
)

// tcSource is the transitive-closure program of examples/reachability.dl
// with its edges as input, the program `sti serve` typically hosts.
const tcSource = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

const (
	baseChains = 1000 // chains in the base fact set
	chainEdges = 9    // edges of a base chain (10 nodes, 45 path tuples)
	maxExt     = 4    // extensions a resident chain may carry
	nodeStride = 16   // node ids per chain: chain c owns [16c, 16c+16)
	blockOps   = 1000 // resident ops per pass

	durableChainsPerOp = 8     // new chains per durable Apply: 72 edges
	durableOps         = 800   // durable Applies per cycle: two memtable flushes
	flushKeys          = 32768 // the store's default FlushKeys

	tcSetups = 10 // set-up repetitions before the loop; setup_s is their median
)

func node(c, j int) int { return c*nodeStride + j }

// tcOptions opens a database the way `sti serve` does: one worker and
// request observability with a 1 s slow log; dir adds the durable tier.
func tcOptions(dir string) []sti.Option {
	opts := []sti.Option{
		sti.WithWorkers(1),
		sti.WithObservability(sti.ObservabilityConfig{
			Logger:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
			SlowRequest: time.Second,
		}),
	}
	if dir != "" {
		opts = append(opts, sti.WithPersistence(dir))
	}
	return opts
}

// addChain adds the edges of chain c to b.
func addChain(b *sti.Batch, c int) {
	for j := 0; j < chainEdges; j++ {
		b.Add("edge", node(c, j), node(c, j+1))
	}
}

// openTC parses the program, opens it with opts and applies the base
// chains: the set-up both TC workloads time.
func openTC(opts []sti.Option, tr *tracer) (*sti.Program, *sti.Database, error) {
	s := tr.begin("sti.Parse")
	prog, err := sti.Parse(tcSource)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("sti.Open")
	db, err := prog.Open(opts...)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	b := db.NewBatch()
	for c := 0; c < baseChains; c++ {
		addChain(b, c)
	}
	s = tr.begin("sti.Apply.base")
	err = db.Apply(b)
	tr.end(s)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return prog, db, nil
}

// --- resident ---

type opKind uint8

const (
	opPoint opKind = iota
	opBound
	opInsert
	opDelete
	numKinds
)

// tcOp is one generated resident op with the answer the generator knows.
type tcOp struct {
	kind opKind
	c    int // chain
	a, b int // node positions: query source/target, or the edge a -> b
	want int // rows a query must return
}

// residentGen tracks the chain lengths so every query's answer is known.
// Each block holds exactly 400 point queries, 200 bound queries, 200
// inserts and 200 deletes, so the fact set returns to the same size at
// every block boundary and the mix is stationary.
type residentGen struct {
	rng    *rand.Rand
	length []int // edges of each chain
	exts   []int // one entry per extension: the extended chain
}

func newResidentGen(seed int64) *residentGen {
	g := &residentGen{rng: rand.New(rand.NewSource(seed)), length: make([]int, baseChains)}
	for c := range g.length {
		g.length[c] = chainEdges
	}
	return g
}

// block generates the next blockOps ops in order, updating the lengths.
func (g *residentGen) block() []tcOp {
	kinds := make([]opKind, 0, blockOps)
	for _, kc := range []struct {
		k opKind
		n int
	}{{opPoint, 400}, {opBound, 200}, {opInsert, 200}, {opDelete, 200}} {
		for i := 0; i < kc.n; i++ {
			kinds = append(kinds, kc.k)
		}
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]tcOp, 0, blockOps)
	for i := range kinds {
		if kinds[i] == opDelete && len(g.exts) == 0 {
			// Nothing to retract yet: bring the next insert forward.
			for j := i + 1; j < len(kinds); j++ {
				if kinds[j] == opInsert {
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
		}
		ops = append(ops, g.op(kinds[i]))
	}
	return ops
}

func (g *residentGen) op(k opKind) tcOp {
	switch k {
	case opPoint:
		c := g.rng.Intn(baseChains)
		a := g.rng.Intn(chainEdges + maxExt)
		b := a + 1 + g.rng.Intn(chainEdges+maxExt-a)
		want := 0
		if b <= g.length[c] {
			want = 1
		}
		return tcOp{kind: k, c: c, a: a, b: b, want: want}
	case opBound:
		c := g.rng.Intn(baseChains)
		a := g.rng.Intn(g.length[c])
		return tcOp{kind: k, c: c, a: a, want: g.length[c] - a}
	case opInsert:
		c := g.rng.Intn(baseChains)
		for g.length[c] == chainEdges+maxExt {
			c = g.rng.Intn(baseChains)
		}
		op := tcOp{kind: k, c: c, a: g.length[c], b: g.length[c] + 1}
		g.length[c]++
		g.exts = append(g.exts, c)
		return op
	default:
		i := g.rng.Intn(len(g.exts))
		c := g.exts[i]
		g.exts[i] = g.exts[len(g.exts)-1]
		g.exts = g.exts[:len(g.exts)-1]
		g.length[c]--
		return tcOp{kind: k, c: c, a: g.length[c], b: g.length[c] + 1}
	}
}

// pathSize is the number of path tuples the current chains derive.
func (g *residentGen) pathSize() int {
	n := 0
	for _, l := range g.length {
		n += l * (l + 1) / 2
	}
	return n
}

// checkBound verifies the rows of path(node(c, a), _): exactly the nodes
// after a on chain c.
func checkBound(op tcOp, rows [][]any) error {
	if len(rows) != op.want {
		return fmt.Errorf("path(%d, _): %d rows, want %d", node(op.c, op.a), len(rows), op.want)
	}
	for _, r := range rows {
		x, y := r[0].(int32), r[1].(int32)
		if int(x) != node(op.c, op.a) || int(y) <= node(op.c, op.a) || int(y) > node(op.c, op.a+op.want) {
			return fmt.Errorf("path(%d, _): unexpected row %v", node(op.c, op.a), r)
		}
	}
	return nil
}

// spanNames are the span names of the op kinds.
var spanNames = [numKinds]string{"sti.query_point", "sti.query_bound", "sti.apply_insert", "sti.apply_delete"}

// do runs one op against the database and returns the rows a query read.
func (op tcOp) do(db *sti.Database, tr *tracer) ([][]any, error) {
	s := tr.begin(spanNames[op.kind])
	defer tr.end(s)
	switch op.kind {
	case opPoint:
		return db.Query("path", node(op.c, op.a), node(op.c, op.b))
	case opBound:
		return db.Query("path", node(op.c, op.a), nil)
	case opInsert:
		return nil, db.Apply(db.NewBatch().Add("edge", node(op.c, op.a), node(op.c, op.b)))
	default:
		return nil, db.Apply(db.NewBatch().Delete("edge", node(op.c, op.a), node(op.c, op.b)))
	}
}

// check verifies what op returned against the answer the generator knows.
func (op tcOp) check(rows [][]any, err error) error {
	switch {
	case err != nil:
		return err
	case op.kind == opBound:
		return checkBound(op, rows)
	case op.kind == opPoint && len(rows) != op.want:
		return fmt.Errorf("path(%d, %d): %d rows, want %d", node(op.c, op.a), node(op.c, op.b), len(rows), op.want)
	}
	return nil
}

// opStats collects per-op latencies in microseconds.
type opStats struct {
	all    []float64
	byKind [numKinds][]float64
}

func (s *opStats) add(k opKind, d time.Duration) {
	us := micros(d)
	s.all = append(s.all, us)
	s.byKind[k] = append(s.byKind[k], us)
}

// residentStats is what one resident run measured.
type residentStats struct {
	setups, passes, allocs []float64 // s, s, MB per pass
	ops                    opStats
	gcCycles, gcPauseMs    []float64 // per pass
	incrementalShare       float64
}

// runResidentLoop sets up the resident database and runs blocks of ops
// until budget is spent (at least minPasses blocks).
func runResidentLoop(cfg config, t *tally, tr *tracer, budget time.Duration, minPasses int) (*residentStats, error) {
	st := &residentStats{}
	var db *sti.Database
	var prog *sti.Program
	for i := 0; i < tcSetups; i++ {
		if db != nil {
			db.Close()
		}
		d, err := timeSetup(func() (err error) {
			prog, db, err = openTC(tcOptions(""), tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, d)
	}
	defer db.Close()
	g := newResidentGen(cfg.seed)
	pass := func(sample bool) {
		ops := g.block()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var total time.Duration
		for _, op := range ops {
			if tr != nil {
				tr.request("r" + strconv.Itoa(len(tr.spans)))
			}
			t0 := time.Now()
			rows, err := op.do(db, tr)
			d := time.Since(t0)
			total += d
			if sample {
				st.ops.add(op.kind, d)
			}
			t.check(op.check(rows, err))
		}
		runtime.ReadMemStats(&ms1)
		if sample {
			st.passes = append(st.passes, seconds(total))
			st.allocs = append(st.allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
			st.gcCycles = append(st.gcCycles, float64(ms1.NumGC-ms0.NumGC))
			st.gcPauseMs = append(st.gcPauseMs, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		}
	}
	pass(false) // warm-up
	for start := time.Now(); time.Since(start) < budget || len(st.passes) < minPasses; {
		pass(true)
	}
	t.check(checkResidentFinal(prog, db, g))
	stats := db.Stats()
	if stats.Applies > 0 {
		st.incrementalShare = float64(stats.AppliesIncremental) / float64(stats.Applies)
	}
	return st, nil
}

// checkResidentFinal compares all of path with a from-scratch Run over the
// final edges.
func checkResidentFinal(prog *sti.Program, db *sti.Database, g *residentGen) error {
	in := prog.NewInput()
	for c, l := range g.length {
		for j := 0; j < l; j++ {
			in.Add("edge", node(c, j), node(c, j+1))
		}
	}
	res, err := prog.Run(in, sti.WithWorkers(1))
	if err != nil {
		return err
	}
	got, err := db.Query("path")
	if err != nil {
		return err
	}
	want := res.Rows("path")
	if len(want) != g.pathSize() {
		return fmt.Errorf("recompute: %d path rows, generator expects %d", len(want), g.pathSize())
	}
	if len(got) != len(want) || rowsHash(got) != rowsHash(want) {
		return fmt.Errorf("resident path: %d rows (hash %s), recompute has %d (hash %s)", len(got), rowsHash(got), len(want), rowsHash(want))
	}
	return nil
}

func runResident(cfg config, t *tally) (map[string]metric, error) {
	st, err := runResidentLoop(cfg, t, nil, cfg.seconds, 1)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":   {median(st.setups), "s"},
		"run_s":     {median(st.passes), "s"},
		"alloc_mb":  {median(st.allocs), "MB"},
		"op_p50_us": {median(st.ops.all), "us"},
	}, nil
}

// --- durable ---

// durableGen holds one durable cycle's inputs: the new chains of every op
// in a seeded order and the chain each op's bound query reads.
type durableGen struct {
	chains  [][]int // per op, the new chain ids
	queries []tcOp  // per op, a bound query over an existing chain
}

func newDurableGen(seed int64) *durableGen {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(durableOps * durableChainsPerOp)
	g := &durableGen{}
	for i := 0; i < durableOps; i++ {
		var cs []int
		for _, id := range ids[i*durableChainsPerOp : (i+1)*durableChainsPerOp] {
			cs = append(cs, baseChains+id)
		}
		g.chains = append(g.chains, cs)
		// Query a chain that exists after this op: a base chain or one
		// added by this or an earlier op.
		var c int
		if k := rng.Intn(baseChains + (i+1)*durableChainsPerOp); k < baseChains {
			c = k
		} else {
			k -= baseChains
			c = g.chains[k/durableChainsPerOp][k%durableChainsPerOp]
		}
		a := rng.Intn(chainEdges)
		g.queries = append(g.queries, tcOp{kind: opBound, c: c, a: a, want: chainEdges - a})
	}
	return g
}

// edges is the number of edge facts after all ops.
func (g *durableGen) edges() int {
	return (baseChains + durableOps*durableChainsPerOp) * chainEdges
}

// durableCycle is what one durable cycle measured.
type durableCycle struct {
	setup, run, alloc     float64 // s, s, MB
	applies, queries, ops []float64
	checkpointApplies     []float64 // applies during which a snapshot was taken (traced only)
	recover, diskPerFact  float64
	flushes, compactions  int64
	snapshots             uint64
	walBytesPerFact       float64 // traced only
	gcCycles, gcPauseMs   float64
	snapshotFile          []byte // the last snap-*.snap (traced only)
}

// runDurableCycle opens a fresh data directory, ingests durableOps
// batches with a bound query after each, closes, reopens and checks that
// the reopened database equals the live one.
func runDurableCycle(cfg config, seed int64, t *tally, tr *tracer) (*durableCycle, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cy := &durableCycle{}
	var g *durableGen
	var prog *sti.Program
	var db *sti.Database
	cy.setup, err = timeSetup(func() (err error) {
		g = newDurableGen(seed)
		prog, db, err = openTC(tcOptions(dir), tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	ps0 := db.Stats().Persist
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy time.Duration
	var walBytes int64
	var walFacts int
	for i, cs := range g.chains {
		b := db.NewBatch()
		for _, c := range cs {
			addChain(b, c)
		}
		var before *sti.PersistStats
		if tr != nil {
			tr.request("r" + strconv.Itoa(i))
			before = db.Stats().Persist
		}
		a0 := time.Now()
		s := tr.begin("sti.apply_ingest")
		err := db.Apply(b)
		tr.end(s)
		a1 := time.Now()
		t.check(err)
		if tr != nil {
			// A checkpoint rotates the WAL; other applies only append.
			after := db.Stats().Persist
			if after.Snapshots != before.Snapshots {
				cy.checkpointApplies = append(cy.checkpointApplies, float64(a1.Sub(a0).Nanoseconds())/1e6)
			} else {
				walBytes += after.WALBytes - before.WALBytes
				walFacts += b.Len()
			}
		}
		q := g.queries[i]
		rows, err := q.do(db, tr)
		a2 := time.Now()
		t.check(q.check(rows, err))
		busy += a2.Sub(a0)
		cy.applies = append(cy.applies, micros(a1.Sub(a0)))
		cy.queries = append(cy.queries, micros(a2.Sub(a1)))
		cy.ops = append(cy.ops, micros(a2.Sub(a0)))
	}
	ps1 := db.Stats().Persist
	cy.flushes = ps1.Flushes - ps0.Flushes
	cy.compactions = ps1.Compactions - ps0.Compactions
	cy.snapshots = ps1.Snapshots - ps0.Snapshots
	if walFacts > 0 {
		cy.walBytesPerFact = float64(walBytes) / float64(walFacts)
	}
	live, err := dbDigest(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	c0 := time.Now()
	s := tr.begin("sti.Close")
	err = db.Close()
	tr.end(s)
	busy += time.Since(c0)
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	cy.diskPerFact = float64(disk) / float64(g.edges())
	if tr != nil {
		cy.snapshotFile, err = lastSnapshot(dir)
		if err != nil {
			return nil, err
		}
	}
	r0 := time.Now()
	s = tr.begin("sti.Open.recover")
	db2, err := prog.Open(tcOptions(dir)...)
	tr.end(s)
	rec := time.Since(r0)
	if err != nil {
		return nil, err
	}
	busy += rec
	runtime.ReadMemStats(&ms1)
	cy.recover = seconds(rec)
	cy.run = seconds(busy)
	cy.alloc = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	cy.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	cy.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	reopened, err := dbDigest(db2)
	if err == nil {
		err = checkReopened(live, reopened)
	}
	t.check(err)
	want := digest{pathRows: (baseChains + durableOps*durableChainsPerOp) * chainEdges * (chainEdges + 1) / 2, edgeRows: g.edges()}
	t.check(checkDigestSizes(live, want))
	return cy, db2.Close()
}

// digest is a database's relation sizes and order-independent hashes.
type digest struct {
	pathRows, edgeRows int
	pathHash, edgeHash string
}

func dbDigest(db *sti.Database) (digest, error) {
	path, err := db.Query("path")
	if err != nil {
		return digest{}, err
	}
	edge, err := db.Query("edge")
	if err != nil {
		return digest{}, err
	}
	return digest{len(path), len(edge), rowsHash(path), rowsHash(edge)}, nil
}

// checkReopened compares the reopened database with the live one.
func checkReopened(live, reopened digest) error {
	if reopened != live {
		return fmt.Errorf("reopened database %+v differs from live %+v", reopened, live)
	}
	return nil
}

func checkDigestSizes(got, want digest) error {
	if got.pathRows != want.pathRows || got.edgeRows != want.edgeRows {
		return fmt.Errorf("live database has %d path and %d edge rows, want %d and %d", got.pathRows, got.edgeRows, want.pathRows, want.edgeRows)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func lastSnapshot(dir string) ([]byte, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("no snapshot in %s: %v", dir, err)
	}
	f, err := os.Open(matches[len(matches)-1])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// durableSetup times one set-up on a fresh data directory and removes it.
func durableSetup(cfg config) (float64, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var db *sti.Database
	d, err := timeSetup(func() (err error) {
		newDurableGen(cfg.seed) // a cycle's set-up generates its inputs too
		_, db, err = openTC(tcOptions(dir), nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	return d, db.Close()
}

func runDurable(cfg config, t *tally) (map[string]metric, error) {
	var setups []float64
	for i := 0; i < tcSetups; i++ {
		d, err := durableSetup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	var cycles []*durableCycle
	for start := time.Now(); len(cycles) == 0 || time.Since(start) < cfg.seconds; {
		cy, err := runDurableCycle(cfg, cfg.seed, t, nil)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, cy)
	}
	var runs, allocs, ops []float64
	for _, cy := range cycles {
		setups = append(setups, cy.setup)
		runs = append(runs, cy.run)
		allocs = append(allocs, cy.alloc)
		ops = append(ops, cy.ops...)
	}
	return map[string]metric{
		"setup_s":   {median(setups), "s"},
		"run_s":     {median(runs), "s"},
		"alloc_mb":  {median(allocs), "MB"},
		"op_p50_us": {median(ops), "us"},
	}, nil
}
