package experiments

import (
	"bytes"
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

func TestCatalog(t *testing.T) {
	var buf bytes.Buffer
	Catalog(&buf)
	for _, want := range []string{"threadtest", "larson", "barnes-hut"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("catalog missing %q", want)
		}
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
