package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sti"
	"sti/internal/ast"
	"sti/internal/ast2ram"
	"sti/internal/bench"
	"sti/internal/btree"
	"sti/internal/interp"
	"sti/internal/obsv"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/sema"
	"sti/internal/store"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// paperBands are the shapes EXPERIMENTS.md records for the paper guards:
// the paper's figure and this repository's small-scale measurement.
var paperBands = map[string]any{
	"fig15_slowdown": map[string]any{"paper": []float64{1.32, 5.67}, "experiments_small": []float64{1.33, 7.67}},
	"fig18_relative": map[string]any{"paper_avg": 0.756, "experiments_avg": 0.707},
	"fig19_relative": map[string]any{"paper_avg": 0.8625, "experiments_avg": 0.967},
}

// traceBudget is how long each workload loop of the traced run measures,
// once untraced and once traced.
const traceBudget = 2 * time.Second

// runTraced is the per-layer run. Whatever the workload flag, it measures
// every layer, so each traced run prints the same metrics: the three
// workload loops untraced and traced (tracing overhead, sti and runtime
// metrics), then replays of the workloads' data through the internal
// packages. The spans go to one Chrome trace file.
func runTraced(cfg config, workload string, t *tally, prov map[string]any) (map[string]metric, error) {
	tr := newTracer()
	m := map[string]metric{}
	steps := []func(config, *tally, *tracer, map[string]metric) error{
		traceSuite, traceResident, traceDurable, traceFrontend, tracePaper, traceStructures, traceStore, traceObsv,
	}
	for _, step := range steps {
		tr.request("")
		if err := step(cfg, t, tr, m); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", workload, cfg.seed))
	prov["paper_bands"] = paperBands
	prov["trace_file"] = path
	if err := tr.writeChrome(path, map[string]any{"provenance": prov}); err != nil {
		return nil, err
	}
	return m, nil
}

// cost is a replay's time, allocations and bytes per call.
type cost struct{ ns, allocs, bytes float64 }

// medianCost takes each component's median over repetitions.
func medianCost(cs []cost) cost {
	var ns, allocs, bytes []float64
	for _, c := range cs {
		ns, allocs, bytes = append(ns, c.ns), append(allocs, c.allocs), append(bytes, c.bytes)
	}
	return cost{median(ns), median(allocs), median(bytes)}
}

// replay times n calls of fn and returns the cost per call.
func replay(tr *tracer, name string, n int, fn func(i int)) cost {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s := tr.begin(name)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	tr.end(s)
	runtime.ReadMemStats(&ms1)
	return cost{float64(d.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)}
}

// putReplay records a timed replay with its _allocs and _bytes companions;
// scale converts ns to the metric's unit.
func putReplay(m map[string]metric, name, unit string, scale float64, c cost) {
	m[name] = metric{c.ns / scale, unit}
	m[name+"_allocs"] = metric{c.allocs, "count"}
	m[name+"_bytes"] = metric{c.bytes, "B"}
}

func overhead(traced, untraced []float64) metric {
	return metric{median(traced) / median(untraced), "x"}
}

func traceSuite(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	plain, err := runSuiteLoop(cfg, t, nil, traceBudget, 2)
	if err != nil {
		return err
	}
	traced, err := runSuiteLoop(cfg, t, tr, traceBudget, 2)
	if err != nil {
		return err
	}
	m["trace.overhead.suite"] = overhead(traced.passes, plain.passes)
	m["runtime.suite.gc_cycles"] = metric{median(plain.gcCycles), "count"}
	m["runtime.suite.gc_pause_ms"] = metric{median(plain.gcPauseMs), "ms"}
	m["runtime.suite.alloc_bytes_per_op"] = metric{median(plain.allocs) * 1e6 / float64(len(suitePicks)), "B"}
	return nil
}

func traceResident(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	plain, err := runResidentLoop(cfg, t, nil, traceBudget, 2)
	if err != nil {
		return err
	}
	traced, err := runResidentLoop(cfg, t, tr, traceBudget, 2)
	if err != nil {
		return err
	}
	m["trace.overhead.resident"] = overhead(traced.passes, plain.passes)
	for k, name := range spanNames {
		m[name+"_us"] = metric{median(durationsUs(tr.durations(name))), "us"}
		if k == int(opInsert) || k == int(opDelete) {
			m["resident."+name[len("sti."):]+"_p99_us"] = metric{percentile(plain.ops.byKind[k], 99), "us"}
		}
	}
	applies := append(append([]float64(nil), plain.ops.byKind[opInsert]...), plain.ops.byKind[opDelete]...)
	queries := append(append([]float64(nil), plain.ops.byKind[opPoint]...), plain.ops.byKind[opBound]...)
	m["resident.apply_p50_us"] = metric{median(applies), "us"}
	m["resident.apply_p99_us"] = metric{percentile(applies, 99), "us"}
	m["resident.query_p50_us"] = metric{median(queries), "us"}
	m["resident.query_p99_us"] = metric{percentile(queries, 99), "us"}
	m["sti.incremental_share"] = metric{plain.incrementalShare, "ratio"}
	m["runtime.resident.gc_cycles"] = metric{median(plain.gcCycles), "count"}
	m["runtime.resident.gc_pause_ms"] = metric{median(plain.gcPauseMs), "ms"}
	m["runtime.resident.alloc_bytes_per_op"] = metric{median(plain.allocs) * 1e6 / blockOps, "B"}
	return nil
}

func traceDurable(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	plain, err := runDurableCycle(cfg, cfg.seed, t, nil)
	if err != nil {
		return err
	}
	traced, err := runDurableCycle(cfg, cfg.seed, t, tr)
	if err != nil {
		return err
	}
	m["trace.overhead.durable"] = metric{traced.run / plain.run, "x"}
	m["durable.apply_p50_us"] = metric{median(plain.applies), "us"}
	m["durable.apply_p99_us"] = metric{percentile(plain.applies, 99), "us"}
	m["durable.query_p50_us"] = metric{median(plain.queries), "us"}
	m["durable.query_p99_us"] = metric{percentile(plain.queries, 99), "us"}
	m["durable.recover_s"] = metric{plain.recover, "s"}
	m["durable.disk_bytes_per_fact"] = metric{plain.diskPerFact, "B"}
	m["sti.apply_checkpoint_ms"] = metric{median(traced.checkpointApplies), "ms"}
	m["store.flushes"] = metric{float64(plain.flushes), "count"}
	m["store.compactions"] = metric{float64(plain.compactions), "count"}
	m["store.snapshots"] = metric{float64(plain.snapshots), "count"}
	m["store.wal_bytes_per_fact"] = metric{traced.walBytesPerFact, "B"}
	m["runtime.durable.gc_cycles"] = metric{plain.gcCycles, "count"}
	m["runtime.durable.gc_pause_ms"] = metric{plain.gcPauseMs, "ms"}
	m["runtime.durable.alloc_bytes_per_op"] = metric{plain.alloc * 1e6 / durableOps, "B"}

	// The recompute share of recovery: an in-memory Run on the recovered
	// fact set.
	g := newDurableGen(cfg.seed)
	prog, err := sti.Parse(tcSource)
	if err != nil {
		return err
	}
	in := prog.NewInput()
	for _, e := range g.allEdges() {
		in.Add("edge", int(value.AsInt(e[0])), int(value.AsInt(e[1])))
	}
	s := tr.begin("sti.Run.recompute")
	t0 := time.Now()
	res, err := prog.Run(in, sti.WithWorkers(1))
	d := time.Since(t0)
	tr.end(s)
	if err == nil && res.Size("path") != (baseChains+durableOps*durableChainsPerOp)*chainEdges*(chainEdges+1)/2 {
		err = fmt.Errorf("recompute: %d path rows", res.Size("path"))
	}
	t.check(err)
	m["sti.recompute_s"] = metric{seconds(d), "s"}
	return storeSnapshotReplay(cfg, tr, m, traced.snapshotFile)
}

// allEdges lists every edge of a finished durable cycle as engine tuples.
func (g *durableGen) allEdges() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, g.edges())
	add := func(c int) {
		for j := 0; j < chainEdges; j++ {
			out = append(out, tuple.Tuple{value.FromInt(int32(node(c, j))), value.FromInt(int32(node(c, j+1)))})
		}
	}
	for c := 0; c < baseChains; c++ {
		add(c)
	}
	for _, cs := range g.chains {
		for _, c := range cs {
			add(c)
		}
	}
	return out
}

// traceFrontend replays the suite programs stage by stage: parser, sema,
// ast2ram, then interp tree generation, load and evaluation with the
// suite's two workers.
func traceFrontend(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	exp, err := loadSuiteExpect()
	if err != nil {
		return err
	}
	wls := suiteWorkloads()
	const passes = 3
	stages := []string{"parser.parse", "sema.analyze", "ast2ram.translate", "interp.build", "interp.load"}
	per := map[string][]cost{}
	var cpu, wall time.Duration
	for pass := 0; pass < passes; pass++ {
		sums := map[string]cost{}
		// stage times one stage and adds it to the pass's sum.
		stage := func(name string, fn func()) {
			c := replay(tr, name, 1, func(int) { fn() })
			v := sums[name]
			sums[name] = cost{v.ns + c.ns, v.allocs + c.allocs, v.bytes + c.bytes}
		}
		for _, wl := range wls {
			var astProg *ast.Program
			var semProg *sema.Program
			var ramProg *ram.Program
			var eng *interp.Engine
			var errs []error
			var err error
			st := symtab.New()
			stage("parser.parse", func() { astProg, err = parser.Parse(wl.Src) })
			if err == nil {
				stage("sema.analyze", func() { semProg, errs = sema.Analyze(astProg) })
				if len(errs) > 0 {
					err = errs[0]
				}
			}
			if err == nil {
				stage("ast2ram.translate", func() { ramProg, err = ast2ram.Translate(semProg, st) })
			}
			if err == nil {
				ic := interp.DefaultConfig()
				ic.Workers = suiteWorkers
				stage("interp.build", func() { eng = interp.New(ramProg, st, ic) })
				stage("interp.load", func() { err = eng.Load(wl.NewIO()) })
			}
			if err != nil {
				return fmt.Errorf("%s: %v", wl.FullName(), err)
			}
			c0, w0 := cpuTime(), time.Now()
			c := replay(tr, "interp.eval", 1, func(int) { err = eng.Eval() })
			wall += time.Since(w0)
			cpu += cpuTime() - c0
			if err != nil {
				return fmt.Errorf("%s: %v", wl.FullName(), err)
			}
			name := "interp.eval." + strings.ToLower(wl.Suite)
			per[name] = append(per[name], c)
			t.check(checkSuite(wl.FullName(), func(rel string) [][]any {
				ts, err := eng.Tuples(rel)
				if err != nil {
					return nil
				}
				return decodeTuples(relTypes(ramProg.Relations, rel), st, ts)
			}, exp))
		}
		for _, name := range stages {
			per[name] = append(per[name], sums[name])
		}
	}
	units := map[string]struct {
		unit  string
		scale float64
	}{"parser.parse": {"us", 1e3}, "sema.analyze": {"us", 1e3}, "ast2ram.translate": {"us", 1e3}, "interp.build": {"us", 1e3}, "interp.load": {"ms", 1e6}}
	for name, cs := range per {
		u, ok := units[name]
		if !ok {
			u.unit, u.scale = "ms", 1e6
		}
		putReplay(m, name+"_"+u.unit, u.unit, u.scale, medianCost(cs))
	}
	m["interp.cpu_per_wall"] = metric{cpu.Seconds() / wall.Seconds(), "ratio"}

	// Exact dispatch counts from one profiled pass with one worker.
	var dispatches, saved uint64
	for _, wl := range wls {
		pc := interp.DefaultConfig()
		pc.Profile = true
		_, prof, err := wl.TimeInterp(pc)
		if err != nil {
			return err
		}
		dispatches += prof.TotalDispatches
		saved += prof.SuperSaved
	}
	m["interp.dispatches"] = metric{float64(dispatches), "count"}
	m["interp.super_saved"] = metric{float64(saved), "count"}
	return nil
}

func relTypes(rels []*ram.Relation, name string) []value.Type {
	for _, r := range rels {
		if r.Name == name {
			return r.Types
		}
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracePaper records the paper-shape guards over the suite programs with
// one worker, each side the best of two runs: Fig 15's interpreter
// slowdown against the closure compiler, Fig 18's static dispatch against
// the dynamic adapter, and Fig 19's super-instructions on against off.
func tracePaper(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	best := func(name string, fn func(*bench.Workload) (time.Duration, error)) (time.Duration, error) {
		s := tr.begin(name)
		defer tr.end(s)
		var total time.Duration
		for _, wl := range suiteWorkloads() {
			var fastest time.Duration
			for r := 0; r < 2; r++ {
				d, err := fn(wl)
				if err != nil {
					return 0, fmt.Errorf("%s: %v", wl.FullName(), err)
				}
				if r == 0 || d < fastest {
					fastest = d
				}
			}
			total += fastest
		}
		return total, nil
	}
	interpWith := func(mod func(*interp.Config)) func(*bench.Workload) (time.Duration, error) {
		return func(wl *bench.Workload) (time.Duration, error) {
			c := interp.DefaultConfig()
			mod(&c)
			d, _, err := wl.TimeInterp(c)
			return d, err
		}
	}
	on, err := best("paper.interp", interpWith(func(*interp.Config) {}))
	if err != nil {
		return err
	}
	compiled, err := best("paper.compiled", func(wl *bench.Workload) (time.Duration, error) {
		d, _, err := wl.TimeCompiled()
		return d, err
	})
	if err != nil {
		return err
	}
	dynamic, err := best("paper.dynamic", interpWith(func(c *interp.Config) { c.StaticDispatch = false }))
	if err != nil {
		return err
	}
	noSuper, err := best("paper.nosuper", interpWith(func(c *interp.Config) { c.SuperInstructions = false }))
	if err != nil {
		return err
	}
	m["paper.fig15_slowdown"] = metric{float64(on) / float64(compiled), "x"}
	m["paper.fig18_relative"] = metric{float64(on) / float64(dynamic), "x"}
	m["paper.fig19_relative"] = metric{float64(on) / float64(noSuper), "x"}
	return nil
}

// doopVPT returns DOOP/fop's final vpt tuples in a seeded order.
func doopVPT(seed int64) ([]tuple.Tuple, error) {
	var wl *bench.Workload
	for _, w := range suiteWorkloads() {
		if w.Suite == "DOOP" {
			wl = w
		}
	}
	rp, st, err := wl.Compile()
	if err != nil {
		return nil, err
	}
	eng := interp.New(rp, st, interp.DefaultConfig())
	if err := eng.Run(wl.NewIO()); err != nil {
		return nil, err
	}
	ts, err := eng.Tuples("vpt")
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts, nil
}

// traceStructures replays DOOP/fop's vpt tuples through the B-tree the
// specialized opcodes call and through the dynamic relation adapter, and
// durable's edges through the key codec.
func traceStructures(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	ts, err := doopVPT(cfg.seed)
	if err != nil {
		return err
	}
	n := len(ts)
	keys := make([]relation.Tup2, n)
	for i, tp := range ts {
		keys[i] = relation.ToTup2(tp)
	}
	const reps = 5
	var ins, con, rng []cost
	// Range over each distinct first column.
	var firsts []value.Value
	seen := map[value.Value]bool{}
	for _, k := range keys {
		if !seen[k[0]] {
			seen[k[0]] = true
			firsts = append(firsts, k[0])
		}
	}
	var found int
	for r := 0; r < reps; r++ {
		tree := btree.New[relation.Tup2]()
		ins = append(ins, replay(tr, "btree.insert", n, func(i int) { tree.Insert(keys[i]) }))
		found = 0
		con = append(con, replay(tr, "btree.contains", n, func(i int) {
			if tree.Contains(keys[i]) {
				found++
			}
		}))
		var ranged int
		rng = append(rng, replay(tr, "btree.range", len(firsts), func(i int) {
			it := tree.Range(relation.Tup2{firsts[i], 0}, relation.Tup2{firsts[i], ^value.Value(0)})
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				ranged++
			}
		}))
		var err error
		if found != n || ranged != n || tree.Size() != n {
			err = fmt.Errorf("btree replay: size %d, found %d, ranged %d, want %d", tree.Size(), found, ranged, n)
		}
		t.check(err)
	}
	putReplay(m, "btree.insert_ns", "ns", 1, medianCost(ins))
	putReplay(m, "btree.contains_ns", "ns", 1, medianCost(con))
	putReplay(m, "btree.range_ns", "ns", 1, medianCost(rng))

	flat := make([]value.Value, 0, 2*n)
	for _, tp := range ts {
		flat = append(flat, tp...)
	}
	var rins, rall []cost
	for r := 0; r < reps; r++ {
		idx := relation.NewIndex(relation.BTree, tuple.Identity(2))
		rins = append(rins, replay(tr, "relation.btree.insert", n, func(i int) { idx.Insert(ts[i]) }))
		bulk := relation.NewIndex(relation.BTree, tuple.Identity(2))
		// InsertAll in merge-barrier sized chunks, reported per tuple.
		const chunk = 1024
		calls := (n + chunk - 1) / chunk
		c := replay(tr, "relation.btree.insertall", calls, func(i int) {
			hi := min((i+1)*chunk, n)
			bulk.InsertAll(flat[2*i*chunk:2*hi], hi-i*chunk)
		})
		perTuple := float64(calls) / float64(n)
		rall = append(rall, cost{c.ns * perTuple, c.allocs * perTuple, c.bytes * perTuple})
		var err error
		if idx.Size() != n || bulk.Size() != n {
			err = fmt.Errorf("relation replay: sizes %d and %d, want %d", idx.Size(), bulk.Size(), n)
		}
		t.check(err)
	}
	putReplay(m, "relation.btree.insert_ns", "ns", 1, medianCost(rins))
	putReplay(m, "relation.btree.insertall_ns", "ns", 1, medianCost(rall))

	edges := newDurableGen(cfg.seed).allEdges()
	buf := make([]byte, 0, tuple.KeySize(2))
	encoded := make([][]byte, len(edges))
	for i, e := range edges {
		encoded[i] = tuple.EncodedKey(e)
	}
	dst := make(tuple.Tuple, 2)
	var enc, dec []cost
	for r := 0; r < reps; r++ {
		enc = append(enc, replay(tr, "tuple.encode", len(edges), func(i int) { buf = tuple.AppendKey(buf[:0], edges[i]) }))
		dec = append(dec, replay(tr, "tuple.decode", len(edges), func(i int) { tuple.DecodeKey(dst, encoded[i]) }))
	}
	var codecErr error
	if !tuple.Equal(dst, edges[len(edges)-1]) {
		codecErr = fmt.Errorf("tuple codec: decoded %v, want %v", dst, edges[len(edges)-1])
	}
	t.check(codecErr)
	putReplay(m, "tuple.encode_ns", "ns", 1, medianCost(enc))
	putReplay(m, "tuple.decode_ns", "ns", 1, medianCost(dec))
	return nil
}

// storeTier serves relation indexes from one open store.
type storeTier struct{ s *store.Store }

func (st storeTier) Table(rel string, idx int, order tuple.Order) *store.Table {
	tab, err := st.s.Table(rel+"."+strconv.Itoa(idx), tuple.KeySize(len(order)))
	if err != nil {
		return nil
	}
	return tab
}

func (storeTier) Gate(string, string) {}

// traceStore replays durable's edges through the persistent relation
// adapter and the store's table, WAL and snapshot files.
func traceStore(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	edges := newDurableGen(cfg.seed).allEdges()
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	half := flushKeys / 2
	keys := make([][]byte, len(edges))
	for i, e := range edges {
		keys[i] = tuple.EncodedKey(e)
	}

	s, err := store.Open(filepath.Join(dir, "persist"), store.Options{})
	if err != nil {
		return err
	}
	rel := relation.NewPersistent("edge", 2, nil, storeTier{s})
	if rel == nil {
		s.Close()
		return fmt.Errorf("persistent relation declined")
	}
	c := replay(tr, "relation.persist.insert", half, func(i int) { rel.Insert(edges[i]) })
	putReplay(m, "relation.persist.insert_ns", "ns", 1, c)
	idx := rel.Primary()
	const scans = 2000
	var scanned int
	c = replay(tr, "relation.persist.prefixscan", scans, func(i int) {
		it := idx.PrefixScan(edges[i%half], 1)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			scanned++
		}
	})
	putReplay(m, "relation.persist.prefixscan_us", "us", 1e3, c)
	var scanErr error
	if scanned < scans || rel.Size() != half {
		scanErr = fmt.Errorf("persist replay: %d rows scanned, size %d", scanned, rel.Size())
	}
	t.check(scanErr)
	if err := s.Close(); err != nil {
		return err
	}

	s, err = store.Open(filepath.Join(dir, "table"), store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	tab, err := s.Table("edge.0", tuple.KeySize(2))
	if err != nil {
		return err
	}
	c = replay(tr, "store.table.insert", half, func(i int) { tab.Insert(keys[i]) })
	putReplay(m, "store.table.insert_ns", "ns", 1, c)
	const writes = 200
	c = replay(tr, "store.table.range_after_write", writes, func(i int) {
		tab.Insert(keys[half+i])
		c := tab.Range(keys[half+i], nil)
		if _, ok := c.Next(); !ok {
			t.check(fmt.Errorf("store range after write: key missing"))
		}
	})
	putReplay(m, "store.table.range_after_write_us", "us", 1e3, c)
	for i := half + writes; tab.Len() < flushKeys-1; i++ {
		tab.Insert(keys[i])
	}
	c = replay(tr, "store.table.flush", 1, func(int) {
		if err := tab.Flush(); err != nil {
			t.check(err)
		}
	})
	putReplay(m, "store.table.flush_ms", "ms", 1e6, c)
	var seen int
	cur := tab.Range(nil, nil)
	c = replay(tr, "store.table.scan", tab.Len(), func(int) {
		if _, ok := cur.Next(); ok {
			seen++
		}
	})
	putReplay(m, "store.table.scan_ns", "ns", 1, c)
	t.check(checkCount("store scan", seen, flushKeys-1))

	// One WAL generation: snapshot-every records of one 72-edge batch each.
	wal, err := store.CreateWAL(filepath.Join(dir, "replay.wal"), false)
	if err != nil {
		return err
	}
	const records = 256
	payloads := make([][]byte, records)
	for r := range payloads {
		for _, k := range keys[r*72 : (r+1)*72] {
			payloads[r] = append(payloads[r], k...)
		}
	}
	c = replay(tr, "store.wal.append", records, func(i int) {
		if err := wal.Append(payloads[i]); err != nil {
			t.check(err)
		}
	})
	putReplay(m, "store.wal.append_us", "us", 1e3, c)
	if err := wal.Close(); err != nil {
		return err
	}
	var replayed int
	c = replay(tr, "store.wal.replay", 1, func(int) {
		n, err := store.ReplayWAL(filepath.Join(dir, "replay.wal"), func([]byte) error { return nil })
		replayed = n
		if err != nil {
			t.check(err)
		}
	})
	putReplay(m, "store.wal.replay_ms", "ms", 1e6, c)
	t.check(checkCount("wal replay", replayed, records))
	return nil
}

// storeSnapshotReplay writes and reads back the durable run's final
// snapshot bytes.
func storeSnapshotReplay(cfg config, tr *tracer, m map[string]metric, snap []byte) error {
	dir, err := os.MkdirTemp(cfg.tmp, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := store.SnapshotPath(dir, 1)
	var werr, rerr error
	c := replay(tr, "store.snapshot.write", 1, func(int) { werr = store.WriteSnapshot(path, snap) })
	putReplay(m, "store.snapshot.write_ms", "ms", 1e6, c)
	var back []byte
	c = replay(tr, "store.snapshot.read", 1, func(int) { back, rerr = store.ReadSnapshot(path) })
	putReplay(m, "store.snapshot.read_ms", "ms", 1e6, c)
	if werr != nil {
		return werr
	}
	if rerr != nil {
		return rerr
	}
	if len(back) != len(snap) {
		return fmt.Errorf("snapshot read back %d bytes, wrote %d", len(back), len(snap))
	}
	return nil
}

func checkCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d, want %d", what, got, want)
	}
	return nil
}

// traceObsv replays a request's observer bookkeeping from outside.
func traceObsv(cfg config, t *tally, tr *tracer, m map[string]metric) error {
	o := obsv.New(obsv.Config{SlowRequest: time.Second})
	const n = 200000
	c := replay(tr, "obsv.req", n, func(int) {
		o.Start(obsv.OpQuery, "path").Finish(obsv.OutOK, nil)
	})
	putReplay(m, "obsv.req_ns", "ns", 1, c)
	return nil
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
