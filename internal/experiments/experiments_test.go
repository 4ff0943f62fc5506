package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// microOpts shrinks everything so the whole suite runs in seconds.
func microOpts() Options {
	o := Defaults(Quick)
	o.Procs = []int{1, 2, 4}
	return o
}

func TestFiguresWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Figures() {
		if f.ID == "" || f.Title == "" || f.Paper == "" || f.Run == nil {
			t.Fatalf("incomplete figure %+v", f)
		}
		if ids[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		ids[f.ID] = true
		if f.Metric != "speedup" && f.Metric != "throughput" {
			t.Fatalf("figure %s: bad metric %q", f.ID, f.Metric)
		}
	}
	if len(ids) != 7 {
		t.Fatalf("%d figures, want the paper's 7", len(ids))
	}
	if _, ok := FigureByID("threadtest"); !ok {
		t.Fatal("FigureByID(threadtest) missing")
	}
	if _, ok := FigureByID("nope"); ok {
		t.Fatal("FigureByID accepted unknown id")
	}
}

func TestRunFigureShape(t *testing.T) {
	opts := microOpts()
	opts.Allocs = []string{"hoard", "serial"}
	def, _ := FigureByID("threadtest")
	var calls int
	fig := RunFigure(def, opts, func(string, int) { calls++ })
	if calls != len(opts.Allocs)*len(opts.Procs) {
		t.Fatalf("progress called %d times", calls)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Results) != len(opts.Procs) {
			t.Fatalf("series %s has %d points", s.Allocator, len(s.Results))
		}
		sp := s.Speedup()
		if sp[0] != 1.0 {
			t.Fatalf("speedup at P=1 is %v, want 1", sp[0])
		}
	}
	// The headline shape at miniature scale: Hoard's 4-CPU speedup beats
	// serial's.
	var hoard4, serial4 float64
	for _, s := range fig.Series {
		sp := s.Speedup()
		if s.Allocator == "hoard" {
			hoard4 = sp[len(sp)-1]
		} else {
			serial4 = sp[len(sp)-1]
		}
	}
	if hoard4 <= serial4 {
		t.Fatalf("hoard speedup %.2f <= serial %.2f", hoard4, serial4)
	}
	var buf bytes.Buffer
	fig.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "hoard") || !strings.Contains(out, "P=4") {
		t.Fatalf("Format output missing content:\n%s", out)
	}
}

func TestTablesRun(t *testing.T) {
	opts := microOpts()
	opts.Allocs = []string{"hoard", "serial", "private"}
	cases := []struct {
		name string
		run  func(Options, func(string, int)) Table
		rows int
	}{
		{"frag", Fragmentation, 5}, // figures minus the two false-sharing microbenches
		{"uniproc", Uniproc, 3},
		{"blowup", Blowup, 3},
		{"blowup-shift", BlowupShift, 3},
		{"coherence", Coherence, 6},
		{"ablate-f", AblateF, 4},
		{"ablate-s", AblateS, 4},
		{"ablate-k", AblateK, 4},
		{"ablate-heaps", AblateHeaps, 3},
		{"tcache", AblateTCache, 6},
		{"contention", Contention, 3},
		{"cost-sensitivity", CostSensitivity, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := tc.run(opts, nil)
			if len(tbl.Rows) != tc.rows {
				t.Fatalf("%d rows, want %d", len(tbl.Rows), tc.rows)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row width %d != header %d", len(row), len(tbl.Header))
				}
			}
			var buf bytes.Buffer
			tbl.Format(&buf)
			if buf.Len() == 0 {
				t.Fatal("empty Format output")
			}
		})
	}
}

func TestCatalog(t *testing.T) {
	var buf bytes.Buffer
	Catalog(&buf)
	for _, want := range []string{"threadtest", "larson", "barnes-hut"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("catalog missing %q", want)
		}
	}
}

// TestBlowupTableShape pins the taxonomy: the private allocator's growth
// column must dwarf Hoard's.
func TestBlowupTableShape(t *testing.T) {
	opts := microOpts()
	opts.Allocs = []string{"hoard", "private"}
	tbl := Blowup(opts, nil)
	growth := map[string]string{}
	for _, row := range tbl.Rows {
		growth[row[0]] = row[3]
	}
	var hoardG, privG float64
	if _, err := fmt.Sscanf(growth["hoard"], "%fx", &hoardG); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(growth["private"], "%fx", &privG); err != nil {
		t.Fatal(err)
	}
	if privG < 3*hoardG {
		t.Fatalf("private growth %.2f vs hoard %.2f: blowup shape missing", privG, hoardG)
	}
}

func TestRenderFormats(t *testing.T) {
	opts := microOpts()
	opts.Allocs = []string{"hoard"}
	def, _ := FigureByID("threadtest")
	fig := RunFigure(def, opts, nil)
	tbl := Blowup(opts, nil)
	for _, of := range []OutputFormat{FormatText, FormatCSV, FormatMarkdown} {
		var fb, tb bytes.Buffer
		fig.Render(&fb, of)
		tbl.Render(&tb, of)
		if fb.Len() == 0 || tb.Len() == 0 {
			t.Fatalf("format %s produced empty output", of)
		}
	}
	var b bytes.Buffer
	fig.Render(&b, FormatCSV)
	if !strings.Contains(b.String(), "allocator,P=1") {
		t.Fatalf("csv header missing:\n%s", b.String())
	}
	b.Reset()
	tbl.Render(&b, FormatMarkdown)
	if !strings.Contains(b.String(), "| ---") {
		t.Fatalf("markdown separator missing:\n%s", b.String())
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat accepted xml")
	}
}
