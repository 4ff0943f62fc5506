package main

import (
	"strings"
	"testing"
)

// TestBadValuesFailBeforeRunning checks that every -exp id and -allocs name
// is validated up front: a bad value anywhere in the list is a one-line
// error naming the valid values, returned before any experiment prints.
func TestBadValuesFailBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "nope"}, `unknown experiment "nope" (valid: catalog threadtest`},
		{"unknown after a valid one", []string{"-exp", "frag,typo"}, `unknown experiment "typo"`},
		{"removed experiment", []string{"-exp", "arena"}, `unknown experiment "arena"`},
		{"empty experiment", []string{"-exp", ""}, `unknown experiment ""`},
		{"trailing comma in -exp", []string{"-exp", "catalog,"}, `unknown experiment ""`},
		{"unknown allocator", []string{"-exp", "catalog", "-allocs", "nope"}, `unknown allocator "nope" (valid: hoard `},
		{"trailing comma in -allocs", []string{"-exp", "catalog", "-allocs", "hoard,"}, `unknown allocator ""`},
		{"empty allocator", []string{"-exp", "catalog", "-allocs", ","}, `unknown allocator ""`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%q) succeeded", tc.args)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Errorf("run(%q) = %q, want one line containing %q", tc.args, msg, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("run(%q) printed before failing:\n%s", tc.args, out.String())
			}
		})
	}
}

func TestRunCatalog(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", " catalog", "-allocs", "hoard, serial"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "T1 — benchmark catalog\n") {
		t.Fatalf("catalog output:\n%s", out.String())
	}
}
