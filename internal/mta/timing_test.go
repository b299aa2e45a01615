package mta

import (
	"fmt"
	"slices"
	"testing"

	"pargraph/internal/sim"
)

// directBankPeak is the oracle for the bucket fold: the per-bank tally
// the machine kept before buckets, one counter per bank, indexed by the
// (hashed or raw) address modulo Banks.
func directBankPeak(addrs []uint64, banks int, hashed bool) (peak int64, perBank []int64) {
	perBank = make([]int64, banks)
	for _, a := range addrs {
		if hashed {
			a = hash(a)
		}
		perBank[a%uint64(banks)]++
	}
	return slices.Max(perBank), perBank
}

// TestBankFoldExact: references tallied into 1024 buckets and folded onto
// Banks = 128…1024 give exactly the per-bank counts, and so the peak, of
// a direct per-bank tally, for random and power-of-two-strided address
// streams with hashing on and off. A non-power-of-two Banks tallies per
// bank and needs no fold.
func TestBankFoldExact(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	random := make([]uint64, 20000)
	for i := range random {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		random[i] = state >> 20
	}
	streams := map[string][]uint64{"random": random}
	for _, stride := range []uint64{1, 64, 128, 1024, 4096, 1 << 20} {
		s := make([]uint64, 20000)
		for i := range s {
			s[i] = uint64(3)<<40 + uint64(i)*stride
		}
		streams[fmt.Sprintf("stride=%d", stride)] = s
	}
	for name, addrs := range streams {
		for _, hashed := range []bool{true, false} {
			for _, banks := range []int{128, 256, 512, 1024, 384} {
				cfg := DefaultConfig(1)
				cfg.Banks, cfg.HashMemory = banks, hashed
				m := New(cfg)
				m.beginRegion()
				th := m.newThread(m.region)
				for _, a := range addrs {
					th.Load(a)
				}
				var ch charges
				m.tallyCharges(&ch)

				wantPeak, wantBanks := directBankPeak(addrs, banks, hashed)
				folded := make([]int64, banks)
				for i, b := range ch.bankIdx {
					folded[int(b)%banks] += ch.bankCnt[i]
				}
				where := fmt.Sprintf("%s hashed=%t banks=%d", name, hashed, banks)
				if !slices.Equal(folded, wantBanks) {
					t.Errorf("%s: folded per-bank counts differ from a direct tally", where)
				}
				if got := m.bankPeak(ch.bankIdx, ch.bankCnt); got != wantPeak {
					t.Errorf("%s: folded peak %d, direct tally %d", where, got, wantPeak)
				}
				if got := m.bankPeak(ch.bankIdx, ch.bankCnt); got != wantPeak {
					t.Errorf("%s: second fold %d: the scratch was not cleared", where, got)
				}
			}
		}
	}
}

// TestTapeItemCodes checks each item encoding round-trips and is chosen
// by the region's distinct-item count.
func TestTapeItemCodes(t *testing.T) {
	m := New(DefaultConfig(1))
	var want [][]sim.Item
	tape, err := m.RecordTape(func(m *Machine) error {
		for _, distinct := range []int{1, 256, 257, 65536, 65537} {
			m.ParallelFor(70000, sim.SchedDynamic, func(i int, t *Thread) {
				t.Instr(1 + i%distinct)
			})
			want = append(want, slices.Clone(m.items))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, form := range []string{"codes8", "codes8", "codes16", "codes16", "raw"} {
		r := &tape.regions[i]
		got := "codes8"
		switch {
		case r.raw != nil:
			got = "raw"
		case r.codes16 != nil:
			got = "codes16"
		}
		if got != form {
			t.Errorf("region %d stored as %s, want %s", i, got, form)
		}
		var buf []sim.Item
		if !slices.Equal(r.decode(&buf), want[i]) {
			t.Errorf("region %d: decoded items differ from the recorded ones", i)
		}
	}
}
