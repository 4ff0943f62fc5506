package main

import (
	"strings"
	"testing"
)

// TestRun simulates a few bodies for two steps: every tree node is freed
// within its step and the allocator checks out.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bodies", "200", "-steps", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"simulated 200 bodies x 2 steps", " 0 B live", "integrity check passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
