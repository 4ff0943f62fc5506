package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.txt from this run")

// TestGolden renders every figure and table at micro scale and compares the
// text byte for byte with testdata/<id>.txt, then checks the paper claims
// that experiment carries. The simulator is deterministic, so any difference
// is a change in behaviour. A change that moves a golden number but keeps
// every claim re-records the goldens with -update and says why in its change
// notes; a broken claim is a regression.
func TestGolden(t *testing.T) {
	// Tables compare Hoard with the serial and private-heap baselines (the
	// tables that sweep P sweep 1, 2, 4; most fix their own P). Figures
	// add the Doug Lea heap, which no other simulator golden pins.
	tableOpts := microOpts()
	tableOpts.Allocs = []string{"hoard", "serial", "private"}
	figOpts := Defaults(Quick)
	figOpts.Procs = []int{1, 4}
	figOpts.Allocs = []string{"hoard", "serial", "dlheap"}

	type golden struct {
		id string
		// render writes the experiment's text to w and returns its rows.
		render func(t *testing.T, w io.Writer) [][]string
	}
	var goldens []golden
	for _, def := range Figures() {
		goldens = append(goldens, golden{def.ID, func(t *testing.T, w io.Writer) [][]string {
			calls := 0
			fig := RunFigure(def, figOpts, func(string, int) { calls++ })
			if want := len(figOpts.Allocs) * len(figOpts.Procs); calls != want {
				t.Errorf("progress called %d times, want once per point (%d)", calls, want)
			}
			fig.Format(w)
			_, rows := fig.cells()
			return rows
		}})
	}
	for _, def := range Tables() {
		goldens = append(goldens, golden{def.ID, func(t *testing.T, w io.Writer) [][]string {
			tbl := def.Run(tableOpts, nil)
			if tbl.ID != def.ID {
				t.Errorf("table ID %q, want its catalog id", tbl.ID)
			}
			tbl.Format(w)
			return tbl.Rows
		}})
	}

	for _, g := range goldens {
		t.Run(g.id, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			rows := g.render(t, &got)
			path := filepath.Join("testdata", g.id+".txt")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if want, err := os.ReadFile(path); err != nil {
				t.Errorf("%v (record it with -update)", err)
			} else if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output differs from %s\n--- got:\n%s--- want:\n%s", g.id, path, got.Bytes(), want)
			}
			if c, ok := claims[g.id]; ok {
				t.Run(c.name, func(t *testing.T) { c.check(t, rows) })
			}
		})
	}
}

// claim is one of the paper's results, named for its figure or table.
type claim struct {
	name  string
	check func(t *testing.T, rows [][]string)
}

// claims are the paper's results the goldens must keep, keyed by experiment
// id and checked, as a subtest named for the claim, on the rows TestGolden
// rendered.
var claims = map[string]claim{
	// T4: Hoard's committed memory does not grow across producer-consumer
	// rounds (O(1) blowup); pure private heaps grow without bound.
	"blowup": {"T4", func(t *testing.T, rows [][]string) {
		hoard, private := cell(t, rows, 3, "hoard"), cell(t, rows, 3, "private")
		if hoard != 1 {
			t.Errorf("T4: hoard growth %.2fx, want 1.00x", hoard)
		}
		if private < 3*hoard {
			t.Errorf("T4: private growth %.2fx, want >= 3x hoard's %.2fx", private, hoard)
		}
	}},
	// A4: Hoard gives each thread its own superblocks, so active false
	// sharing moves no cache line; the serial allocator interleaves the
	// threads' objects on shared lines.
	"coherence": {"A4", func(t *testing.T, rows [][]string) {
		if n := cell(t, rows, 2, "hoard", "active-false"); n != 0 {
			t.Errorf("A4: hoard active-false remote transfers %v, want 0", n)
		}
		if n := cell(t, rows, 2, "serial", "active-false"); n <= 0 {
			t.Errorf("A4: serial active-false remote transfers %v, want > 0", n)
		}
	}},
	// F1: Hoard scales on threadtest where the serial allocator does not.
	"threadtest": {"F1", func(t *testing.T, rows [][]string) {
		last := len(rows[0]) - 1 // P=4
		if hoard, serial := cell(t, rows, last, "hoard"), cell(t, rows, last, "serial"); hoard <= serial {
			t.Errorf("F1: hoard speedup %.2f at P=4, want above serial's %.2f", hoard, serial)
		}
	}},
}

// cell returns column col of the row whose leading cells are key, as a
// number (a trailing "x" is dropped).
func cell(t *testing.T, rows [][]string, col int, key ...string) float64 {
	t.Helper()
	for _, row := range rows {
		if len(row) > col && slices.Equal(row[:len(key)], key) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
			if err != nil {
				t.Fatalf("row %v: %v", key, err)
			}
			return v
		}
	}
	t.Fatalf("no row %v", key)
	return 0
}
