package vm

import "testing"

// fuzzBackends builds one instance of every backend available on this
// platform for a fuzz iteration. The arena gets small regions: each
// iteration creates a fresh pair and closes it on cleanup.
func fuzzBackends(t *testing.T) map[string]Backend {
	bs := map[string]Backend{"sim": New()}
	if a, err := NewArena(ArenaOptions{SlotRegionBytes: 32 << 20, LargeRegionBytes: 32 << 20}); err == nil {
		t.Cleanup(func() { a.Close() })
		bs["arena"] = a
	}
	return bs
}

// FuzzReserveRelease drives a backend with byte-coded operations — reserve,
// release, decommit, recommit — and checks lookup consistency,
// reserved/committed accounting, the reserved >= committed invariant, and
// that no decommitted address is ever handed out, at every step. Every input
// runs against BOTH backends (sim always, arena where the platform has one),
// so the two implementations are held to the same observable contract.
func FuzzReserveRelease(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x80, 0x03})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x01, 0x02, 0x03, 0x04})
	f.Add([]byte{0x00, 0x04, 0x02, 0x00, 0x06, 0x01, 0x02, 0x00, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, be := range fuzzBackends(t) {
			driveBackend(t, name, be, data)
		}
	})
}

func driveBackend(t *testing.T, name string, s Backend, data []byte) {
	type span struct {
		sp    *Span
		decom bool // model: the span is decommitted
	}
	var live []*span
	var wantReserved, wantCommitted int64
	for i := 0; i+1 < len(data) && i < 400; i += 2 {
		op, arg := data[i], data[i+1]
		switch {
		case op%4 == 0 || len(live) == 0: // reserve
			size := (int(arg)%8 + 1) * PageSize
			align := PageSize << (int(op>>4) % 4)
			sp := s.Reserve(size, align, i)
			if sp.Base%uint64(align) != 0 {
				t.Fatalf("%s: misaligned reserve %#x align %d", name, sp.Base, align)
			}
			if got := s.Lookup(sp.Base + uint64(sp.Len) - 1); got != sp {
				t.Fatalf("%s: last byte lookup failed", name)
			}
			data := sp.Data()
			for j := range data {
				data[j] = 0xFF
			}
			live = append(live, &span{sp: sp})
			wantReserved += int64(sp.Len)
			wantCommitted += int64(sp.Len)
		case op%4 == 1: // release
			idx := int(arg) % len(live)
			r := live[idx]
			base := r.sp.Base
			wantReserved -= int64(r.sp.Len)
			if !r.decom {
				wantCommitted -= int64(r.sp.Len)
			}
			s.Release(r.sp)
			if s.Lookup(base) != nil {
				t.Fatalf("%s: released span still visible", name)
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // decommit (op%4==2) or recommit (op%4==3)
			r := live[int(op>>4)%len(live)]
			// The span's first, middle or last byte.
			addr := r.sp.Base + uint64([...]int{0, r.sp.Len / 2, r.sp.Len - 1}[int(arg)%3])
			if op%4 == 2 {
				r.sp.Decommit()
				if !r.decom {
					r.decom = true
					wantCommitted -= int64(r.sp.Len)
				}
				// The decommitted address must never be handed out...
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: Bytes on decommitted span did not panic", name)
						}
					}()
					s.Bytes(addr, 1)
				}()
				// ...but the address itself stays reserved.
				if s.Lookup(addr) != r.sp {
					t.Fatalf("%s: decommitted address no longer resolves", name)
				}
			} else {
				wasDecom := r.decom
				r.sp.Recommit()
				if r.decom {
					r.decom = false
					wantCommitted += int64(r.sp.Len)
				}
				// Recommitted memory is accessible and zeroed — the OS
				// zero-fill guarantee on the arena, the simulated
				// equivalent on sim.
				if b := s.Bytes(addr, 1); wasDecom && b[0] != 0 {
					t.Fatalf("%s: recommitted span not zeroed", name)
				}
			}
		}
		st := s.Stats()
		if st.Committed != wantCommitted {
			t.Fatalf("%s: committed %d, want %d", name, st.Committed, wantCommitted)
		}
		if st.Reserved != wantReserved {
			t.Fatalf("%s: reserved %d, want %d", name, st.Reserved, wantReserved)
		}
		if st.Reserved < st.Committed {
			t.Fatalf("%s: invariant violated: reserved %d < committed %d", name, st.Reserved, st.Committed)
		}
		if st.DecommittedBytes != wantReserved-wantCommitted {
			t.Fatalf("%s: decommitted %d, want %d", name, st.DecommittedBytes, wantReserved-wantCommitted)
		}
	}
}
