package experiments

import "testing"

func TestFootprintResults(t *testing.T) {
	entries := footprintResults(Defaults(Quick), nil)
	if len(entries) != 2*len(footprintModes()) {
		t.Fatalf("got %d entries, want %d", len(entries), 2*len(footprintModes()))
	}
	byMode := map[string]map[string]footprintEntry{}
	for _, e := range entries {
		if byMode[e.Workload] == nil {
			byMode[e.Workload] = map[string]footprintEntry{}
		}
		byMode[e.Workload][e.Mode] = e

		if e.FinalReserved != e.FinalCommitted+e.FinalDecommitted {
			t.Errorf("%s/%s: reserved %d != committed %d + decommitted %d",
				e.Workload, e.Mode, e.FinalReserved, e.FinalCommitted, e.FinalDecommitted)
		}
		if e.Rounds == 0 || e.PeakCommitted == 0 || e.ElapsedNS == 0 {
			t.Errorf("%s/%s: degenerate entry %+v", e.Workload, e.Mode, e)
		}
		switch e.Mode {
		case "off":
			if e.ScavengePasses != 0 || e.FinalDecommitted != 0 {
				t.Errorf("%s/off scavenged: %+v", e.Workload, e)
			}
		case "forced":
			if e.ScavengePasses == 0 || e.ScavengedBytes == 0 {
				t.Errorf("%s/forced never scavenged: %+v", e.Workload, e)
			}
		}
	}
	for wl, modes := range byMode {
		off, forced := modes["off"], modes["forced"]
		// The acceptance criterion: forced release's steady-state committed
		// footprint sits measurably below retain-everything.
		if forced.SteadyCommitted >= off.SteadyCommitted {
			t.Errorf("%s: forced steady %d not below off %d", wl, forced.SteadyCommitted, off.SteadyCommitted)
		}
		// Peak demand is set by the workload, not the release policy.
		if off.PeakCommitted != forced.PeakCommitted {
			t.Errorf("%s: peak differs across modes: off %d forced %d", wl, off.PeakCommitted, forced.PeakCommitted)
		}
	}
}

func TestSteadyMean(t *testing.T) {
	if got := steadyMean([]int64{100, 100, 100, 40}); got != 40 {
		t.Fatalf("steadyMean tail-of-4 = %d, want 40", got)
	}
	if got := steadyMean([]int64{8}); got != 8 {
		t.Fatalf("steadyMean single = %d", got)
	}
	if got := steadyMean(nil); got != 0 {
		t.Fatalf("steadyMean nil = %d", got)
	}
}
