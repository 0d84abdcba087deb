package main

import (
	"fmt"
	"os"
	"reflect"
	"testing"
)

func testConfig(t *testing.T) config {
	return config{seed: 7, tmp: t.TempDir(), out: t.TempDir()}
}

// Each output check passes on the real answer and fails once its
// expectation is corrupted.

func TestSuiteCheckFailsOnCorruptExpectation(t *testing.T) {
	exp, err := loadSuiteExpect()
	if err != nil {
		t.Fatal(err)
	}
	p := suiteInputs(7)[0] // VPC/acct-corp, the cheapest program
	res, err := p.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	name := p.wl.FullName()
	if err := checkSuite(name, res.Rows, exp); err != nil {
		t.Fatalf("real expectation: %v", err)
	}
	for rel, want := range exp[name] {
		for _, bad := range []relExpect{{want.Size + 1, want.Hash}, {want.Size, "0000000000000000"}} {
			corrupt := suiteExpect{name: {}}
			for r, e := range exp[name] {
				corrupt[name][r] = e
			}
			corrupt[name][rel] = bad
			if checkSuite(name, res.Rows, corrupt) == nil {
				t.Errorf("%s: check passed with corrupted expectation %+v", rel, bad)
			}
		}
	}
	if checkSuite("VPC/missing", res.Rows, exp) == nil {
		t.Error("check passed without expectations")
	}
}

func TestResidentChecksFailOnCorruptExpectation(t *testing.T) {
	prog, db, err := openTC(tcOptions(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := newResidentGen(7)
	var sawPoint, sawBound bool
	for _, op := range g.block() {
		rows, err := op.do(db, nil)
		if err := op.check(rows, err); err != nil {
			t.Fatalf("real answer: %v", err)
		}
		bad := op
		bad.want++
		switch op.kind {
		case opPoint:
			sawPoint = true
			bad.want = 1 - op.want
		case opBound:
			sawBound = true
		default:
			continue
		}
		if bad.check(rows, nil) == nil {
			t.Errorf("%+v: check passed with corrupted answer %d", op, bad.want)
		}
	}
	if !sawPoint || !sawBound {
		t.Fatal("block without queries")
	}
	if err := checkResidentFinal(prog, db, g); err != nil {
		t.Fatalf("final check: %v", err)
	}
	g.length[0]--
	if checkResidentFinal(prog, db, g) == nil {
		t.Error("final check passed against corrupted edges")
	}
}

func TestDurableChecksFailOnCorruptExpectation(t *testing.T) {
	live := digest{pathRows: 10, edgeRows: 4, pathHash: "a", edgeHash: "b"}
	if err := checkReopened(live, live); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []digest{
		{pathRows: 11, edgeRows: 4, pathHash: "a", edgeHash: "b"},
		{pathRows: 10, edgeRows: 4, pathHash: "x", edgeHash: "b"},
		{pathRows: 10, edgeRows: 4, pathHash: "a", edgeHash: "x"},
	} {
		if checkReopened(live, bad) == nil {
			t.Errorf("reopen check passed with %+v", bad)
		}
		if bad.pathRows != live.pathRows && checkDigestSizes(live, bad) == nil {
			t.Errorf("size check passed with %+v", bad)
		}
	}
}

// TestDurableCycle runs one full cycle: every check passes and the cycle
// reaches at least two memtable flushes.
func TestDurableCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("a durable cycle takes about ten seconds")
	}
	cfg := testConfig(t)
	var ta tally
	cy, err := runDurableCycle(cfg, cfg.seed, &ta, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if ta.failed != 0 || ta.attempted < 2*durableOps {
		t.Fatalf("%d of %d checks failed: %v", ta.failed, ta.attempted, ta.errs)
	}
	if cy.flushes < 2 {
		t.Errorf("%d memtable flushes, want at least 2", cy.flushes)
	}
	if len(cy.checkpointApplies) == 0 || len(cy.snapshotFile) == 0 {
		t.Errorf("no checkpoint seen: %d checkpoint applies, %d snapshot bytes", len(cy.checkpointApplies), len(cy.snapshotFile))
	}
	entries, err := os.ReadDir(cfg.tmp)
	if err != nil || len(entries) != 0 {
		t.Errorf("data directory left behind: %v %v", entries, err)
	}
}

// --- generators ---

func TestGeneratorsAreSeeded(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"suite": func(seed int64) string { return fmt.Sprint(suiteInputs(seed)[2].facts) },
		"resident": func(seed int64) string {
			g := newResidentGen(seed)
			return fmt.Sprint(g.block(), g.block())
		},
		"durable": func(seed int64) string {
			g := newDurableGen(seed)
			return fmt.Sprint(g.chains, g.queries)
		},
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if a != b {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave identical inputs", name)
		}
	}
}

// TestResidentMixIsStationary checks that the fact set stays in a fixed
// band during a run and returns to the base at every block boundary, so
// per-op numbers do not depend on run length.
func TestResidentMixIsStationary(t *testing.T) {
	g := newResidentGen(3)
	base := g.pathSize()
	if base != baseChains*chainEdges*(chainEdges+1)/2 {
		t.Fatalf("base path size %d", base)
	}
	var counts [numKinds]int
	lo, hi := base, base
	for b := 0; b < 200; b++ {
		for _, op := range g.block() {
			counts[op.kind]++
			if op.kind == opInsert || op.kind == opDelete {
				n := g.pathSize()
				lo, hi = min(lo, n), max(hi, n)
			}
		}
		if g.pathSize() != base || len(g.exts) != 0 {
			t.Fatalf("block %d ends at %d path tuples, %d extensions", b, g.pathSize(), len(g.exts))
		}
	}
	if want := [numKinds]int{80000, 40000, 40000, 40000}; counts != want {
		t.Errorf("op counts %v, want %v", counts, want)
	}
	// Every extension adds at most chainEdges+maxExt path tuples, and a
	// block has at most 200 outstanding extensions.
	if hi-base > 200*(chainEdges+maxExt) || lo < base {
		t.Errorf("path size left the band: [%d, %d] around %d", lo, hi, base)
	}
}

// --- compare ---

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, []float64{2.75, 5.5, 8.25}) {
		t.Fatalf("quartiles %v", got)
	}
}

func TestVerdict(t *testing.T) {
	before := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	faster := []float64{8, 8.1, 7.9, 8.05, 7.95, 8, 8.1, 7.9, 8.02, 7.98}
	noisy := []float64{8, 12, 8, 12, 8, 12, 8, 12, 8, 12}
	for _, c := range []struct {
		after        []float64
		higherBetter bool
		want         string
	}{
		{faster, false, "better"},
		{faster, true, "worse"},
		{before, false, "unresolved"},
		{noisy, false, "unresolved"},
	} {
		if got := verdict(before, c.after, c.higherBetter); got != c.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", c.after, c.higherBetter, got, c.want)
		}
	}
}
