package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"sti/internal/compile"
)

var update = flag.Bool("update", false, "rewrite expect_suite.json from the closure compiler")

// compiledExpect derives the suite expectations from the closure compiler,
// never from the interpreter the benchmark measures.
func compiledExpect(t *testing.T) suiteExpect {
	exp := suiteExpect{}
	for _, wl := range suiteWorkloads() {
		rp, st, err := wl.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := compile.New(rp, st)
		if err := m.Run(wl.NewIO()); err != nil {
			t.Fatalf("%s: %v", wl.FullName(), err)
		}
		rels := map[string]relExpect{}
		for _, rd := range rp.Relations {
			if rd.Aux {
				continue
			}
			ts, err := m.Tuples(rd.Name)
			if err != nil {
				t.Fatal(err)
			}
			rows := decodeTuples(rd.Types, st, ts)
			rels[rd.Name] = relExpect{Size: len(rows), Hash: rowsHash(rows)}
		}
		exp[wl.FullName()] = rels
	}
	return exp
}

func TestSuiteExpectFromCompiler(t *testing.T) {
	want := compiledExpect(t)
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expect_suite.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := loadSuiteExpect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expect_suite.json is stale; regenerate with go test -run TestSuiteExpectFromCompiler -update")
	}
}
