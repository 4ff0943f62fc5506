package main

import (
	"strings"
	"testing"
)

// TestRun serves a small request stream end to end: every buffer freed,
// no magazine bytes stranded, integrity clean.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-requests", "2000", "-workers", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"requests    2000 via 2 workers", "0 B live, 0 B cached", "integrity check passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
