package main

import (
	"net"
	"strings"
	"testing"
)

// TestRun serves /metrics on an ephemeral port for a short churn and
// checks the exit report.
func TestRun(t *testing.T) {
	var out strings.Builder
	args := []string{"-addr", "127.0.0.1:0", "-duration", "300ms", "-workers", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"serving metrics on http://127.0.0.1:", "trims: ", "audits: ", "final: footprint "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunListenError returns the listen error instead of exiting.
func TestRunListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out strings.Builder
	if err := run([]string{"-addr", ln.Addr().String(), "-duration", "1ms"}, &out); err == nil {
		t.Fatalf("run on a taken address returned nil:\n%s", out.String())
	}
}
