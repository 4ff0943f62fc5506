package workload

import (
	"testing"
	"time"

	"hoardgo/internal/core"
	"hoardgo/internal/env"
)

// These tests audit the invariants continuously while real multi-threaded
// workloads run — under -race they are the observability layer's stress
// regression: the audit takes each heap's lock in turn while workers
// allocate, free remotely, and migrate superblocks, and any invariant
// violation (or data race in the audit path itself) fails the test.

// runAudited runs workload against a real-mode Hoard harness while a
// goroutine calls the core's Audit from a 500 µs ticker, then audits once
// more at quiescence, so at least one audit runs however short the
// workload, and checks that none failed and the quiescent full integrity
// check still passes.
func runAudited(t *testing.T, procs int, workload func(h *Harness)) {
	t.Helper()
	h := NewReal("hoard", procs)
	hoard, ok := h.Allocator().(*core.Hoard)
	if !ok {
		t.Fatalf("real harness built %T, want *core.Hoard", h.Allocator())
	}
	stop := make(chan struct{})
	type result struct {
		audits int
		err    error
	}
	done := make(chan result)
	go func() {
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		var r result
		for r.err == nil {
			select {
			case <-stop:
				done <- r
				return
			case <-tick.C:
				r.err = hoard.Audit(&env.RealEnv{ID: -1})
				r.audits++
			}
		}
		<-stop
		done <- r
	}()
	workload(h)
	close(stop)
	r := <-done
	if r.err != nil {
		t.Fatalf("invariant audit %d failed under load: %v", r.audits, r.err)
	}
	if err := hoard.Audit(&env.RealEnv{ID: -1}); err != nil {
		t.Fatalf("invariant audit after %d under load failed: %v", r.audits, err)
	}
	if err := hoard.CheckIntegrity(); err != nil {
		t.Fatalf("quiescent integrity after audited run: %v", err)
	}
}

func TestAuditDuringProdCons(t *testing.T) {
	runAudited(t, 4, func(h *Harness) {
		cfg := DefaultProdCons(4)
		cfg.Rounds, cfg.Batch = 25, 400
		ProdCons(h, cfg)
	})
}

func TestAuditDuringThreadtest(t *testing.T) {
	runAudited(t, 4, func(h *Harness) {
		cfg := DefaultThreadtest(4)
		cfg.Objects = 8000
		Threadtest(h, cfg)
	})
}
