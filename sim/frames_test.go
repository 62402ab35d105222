package sim

import (
	"fmt"
	"testing"
)

// TestCachedFramesMatchPageTables is the frame oracle: every translation a TLB
// caches — an L1 TLB entry, a valid shared-TLB line, a bypass-cache entry —
// holds the frame its address space maps the page to. Checkpoint images write
// each entry's frame; this test shows the page tables already imply it. It
// looks at several cuts through every checkpoint scenario, demand paging and
// Figure 1's time multiplexing among them.
func TestCachedFramesMatchPageTables(t *testing.T) {
	const cycles, every = 4000, 1100
	for _, sc := range ckptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := prepareScenario(t, sc.cfg(), sc.names, sc.alone)
			cuts, checked := 0, 0
			check := func(now int64, where string, asid uint8, vpn, frame uint64) {
				checked++
				if int(asid) < 1 || int(asid) > len(s.spaces) {
					t.Fatalf("cycle %d: %s caches vpn %#x under asid %d, which names no address space", now, where, vpn, asid)
				}
				if want, ok := s.spaces[asid-1].TranslateVPN(vpn); !ok || want != frame {
					t.Fatalf("cycle %d: %s caches asid %d vpn %#x -> frame %#x, page table maps it to %#x (mapped %t)",
						now, where, asid, vpn, frame, want, ok)
				}
			}
			s.eng.SetCheckpointHook(every, func(now int64) {
				cuts++
				for i, l1 := range s.l1tlbs {
					for _, e := range l1.SnapshotState().Entries {
						check(now, fmt.Sprintf("L1 TLB %d", i), e.ASID, e.VPN, e.Frame)
					}
				}
				if s.l2tlb == nil {
					return
				}
				st := s.l2tlb.SnapshotState()
				for _, l := range st.Lines {
					if l.Valid {
						check(now, "the shared TLB", l.ASID, l.VPN, l.Frame)
					}
				}
				if st.Bypass != nil {
					for _, e := range st.Bypass.Entries {
						check(now, "the bypass cache", e.ASID, e.VPN, e.Frame)
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
