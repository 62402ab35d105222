package sim

import (
	"fmt"
	"testing"
)

// TestCachedFramesMatchPageTables is the translation oracle. No TLB holds a
// frame: a core reads each page's frame from its address space when the
// translation lands, so what a TLB caches matches the page tables exactly
// when every cached key — an L1 TLB entry, a valid shared-TLB line, a
// bypass-cache entry — is a page its address space maps, and every L1 TLB
// entry is of its own core's address space. It looks at several cuts
// through every checkpoint scenario, demand paging and Figure 1's time
// multiplexing among them.
func TestCachedFramesMatchPageTables(t *testing.T) {
	const cycles, every = 4000, 1100
	for _, sc := range ckptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := prepareScenario(t, sc.cfg(), sc.names, sc.alone)
			cuts, checked := 0, 0
			check := func(now int64, where string, asid uint8, vpn uint64) {
				checked++
				if int(asid) < 1 || int(asid) > len(s.spaces) {
					t.Fatalf("cycle %d: %s caches vpn %#x under asid %d, which names no address space", now, where, vpn, asid)
				}
				if _, ok := s.spaces[asid-1].TranslateVPN(vpn); !ok {
					t.Fatalf("cycle %d: %s caches asid %d vpn %#x, which its page table does not map", now, where, asid, vpn)
				}
			}
			s.eng.SetCheckpointHook(every, func(now int64) {
				cuts++
				for i, l1 := range s.l1tlbs {
					own := s.spaces[s.cores[i].AppID()].ASID()
					for _, e := range l1.SnapshotState().Entries {
						if e.Key.ASID != own {
							t.Fatalf("cycle %d: L1 TLB %d caches vpn %#x under asid %d, its core runs in asid %d", now, i, e.Key.VPN, e.Key.ASID, own)
						}
						check(now, fmt.Sprintf("L1 TLB %d", i), e.Key.ASID, e.Key.VPN)
					}
				}
				if s.l2tlb == nil {
					return
				}
				st := s.l2tlb.SnapshotState()
				for _, l := range st.Lines {
					if l.Valid {
						check(now, "the shared TLB", l.Key.ASID, l.Key.VPN)
					}
				}
				if st.Bypass != nil {
					for _, e := range st.Bypass.Entries {
						check(now, "the bypass cache", e.Key.ASID, e.Key.VPN)
					}
				}
			})
			s.mustRun(t, cycles)
			if cuts != cycles/every || checked == 0 {
				t.Fatalf("%d cuts checked %d cached translations, want %d cuts and some translations", cuts, checked, cycles/every)
			}
		})
	}
}
