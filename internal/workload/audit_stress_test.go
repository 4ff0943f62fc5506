package workload

import (
	"testing"
	"time"

	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
)

// These tests run the continuous invariant auditor concurrently with real
// multi-threaded workloads — under -race they are the observability layer's
// stress regression: the audit takes each heap's lock in turn while workers
// allocate, free remotely, and migrate superblocks, and any invariant
// violation (or data race in the audit path itself) fails the test.

// runAudited runs workload against a real-mode Hoard harness with a
// background auditor at an aggressive interval, then checks that audits ran,
// none failed, and the quiescent full integrity check still passes.
func runAudited(t *testing.T, procs int, workload func(h *Harness)) {
	t.Helper()
	h := NewReal("hoard", procs)
	hoard, ok := h.Allocator().(*core.Hoard)
	if !ok {
		t.Fatalf("real harness built %T, want *core.Hoard", h.Allocator())
	}
	auditor := metrics.NewAuditor(func() error {
		return hoard.Audit(&env.RealEnv{ID: -1})
	})
	auditor.Start(500 * time.Microsecond)
	workload(h)
	if err := auditor.Stop(); err != nil {
		t.Fatalf("invariant audit failed under load: %v", err)
	}
	if auditor.Passes() == 0 {
		t.Fatal("auditor never ran during the workload")
	}
	if err := hoard.CheckIntegrity(); err != nil {
		t.Fatalf("quiescent integrity after audited run: %v", err)
	}
}

func TestAuditorDuringProdCons(t *testing.T) {
	runAudited(t, 4, func(h *Harness) {
		cfg := DefaultProdCons(4)
		cfg.Rounds, cfg.Batch = 25, 400
		ProdCons(h, cfg)
	})
}

func TestAuditorDuringThreadtest(t *testing.T) {
	runAudited(t, 4, func(h *Harness) {
		cfg := DefaultThreadtest(4)
		cfg.Objects = 8000
		Threadtest(h, cfg)
	})
}
