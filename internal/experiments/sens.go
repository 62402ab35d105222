package experiments

import (
	"fmt"

	"masksim/internal/dram"
	"masksim/internal/metrics"
	"masksim/internal/pagetable"
	"masksim/internal/workload"
	"masksim/sim"
)

// sensPairs are the contended pairs the sensitivity studies sweep.
var sensPairs = []workload.Pair{{A: "3DS", B: "CONS"}, {A: "MM", B: "CONS"}, {A: "RED", B: "BP"}}

// sensJobs appends one shared-run job per contended pair under cfg.
func sensJobs(jobs []BatchJob, cfg sim.Config) []BatchJob {
	for _, p := range sensPairs {
		jobs = append(jobs, BatchJob{Cfg: cfg, Names: []string{p.A, p.B}})
	}
	return jobs
}

// sensMean consumes the next len(sensPairs) results from the batch cursor
// and returns their mean total IPC.
func sensMean(results []*sim.Results, i *int) float64 {
	var xs []float64
	for range sensPairs {
		xs = append(xs, results[*i].TotalIPC)
		*i++
	}
	return metrics.Mean(xs)
}

// SensTLBSize reproduces the §7.3 shared-L2-TLB size sweep: SharedTLB vs
// MASK from 64 to 8192 entries. The paper finds MASK ahead at every size
// until the working set fits (8192), where the two converge.
func SensTLBSize(h *Harness, full bool) (*Table, error) {
	t := &Table{
		ID:    "sens-tlbsize",
		Title: "L2 TLB size sweep: mean weighted-speedup-proxy (total IPC) over contended pairs",
		Note:  "paper: MASK outperforms SharedTLB at every size below working-set fit (8192 entries)",
		Cols:  []string{"entries", "SharedTLB", "MASK", "MASKgain%"},
	}
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if !full {
		sizes = []int{64, 256, 512, 2048, 8192}
	}
	sized := func(base sim.Config, size int) sim.Config {
		base.L2TLBEntries = size
		if size < base.L2TLBWays {
			base.L2TLBWays = size
		}
		return base
	}
	var jobs []BatchJob
	for _, size := range sizes {
		jobs = sensJobs(jobs, sized(sim.SharedTLBConfig(), size))
		jobs = sensJobs(jobs, sized(sim.MASKConfig(), size))
	}
	results, err := h.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, size := range sizes {
		shared := sensMean(results, &i)
		mask := sensMean(results, &i)
		t.AddRowf(2, fmt.Sprintf("%d", size), shared, mask, 100*(mask/shared-1))
	}
	return t, nil
}

// SensPageSize reproduces the §7.3 large-page study: with 2MB pages the
// paper finds SharedTLB still 44.5% short of Ideal while MASK comes within
// 1.8% of it.
func SensPageSize(h *Harness, full bool) (*Table, error) {
	t := &Table{
		ID:    "sens-pagesize",
		Title: "2MB large pages: performance normalized to Ideal",
		Note:  "paper: SharedTLB 55.5% of Ideal, MASK 98.2% of Ideal with 2MB pages",
		Cols:  []string{"pageSize", "SharedTLB/Ideal%", "MASK/Ideal%"},
	}
	pageSizes := []int{pagetable.PageSize4K, pagetable.PageSize2M}
	paged := func(base sim.Config, ps int) sim.Config {
		base.PageSize = ps
		return base
	}
	var jobs []BatchJob
	for _, ps := range pageSizes {
		jobs = sensJobs(jobs, paged(sim.IdealConfig(), ps))
		jobs = sensJobs(jobs, paged(sim.SharedTLBConfig(), ps))
		jobs = sensJobs(jobs, paged(sim.MASKConfig(), ps))
	}
	results, err := h.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, ps := range pageSizes {
		ideal := sensMean(results, &i)
		shared := sensMean(results, &i)
		mask := sensMean(results, &i)
		t.AddRowf(1, fmt.Sprintf("%dKB", ps>>10), 100*shared/ideal, 100*mask/ideal)
	}
	return t, nil
}

// SensMemPolicy reproduces the §7.3 memory-policy studies: open- vs
// closed-row policy, and an alternative (FCFS) memory scheduler. The paper
// finds open/closed within 0.8% of each other, and MASK's gains robust
// across schedulers.
func SensMemPolicy(h *Harness, full bool) (*Table, error) {
	t := &Table{
		ID:    "sens-memsched",
		Title: "memory-policy sensitivity: mean total IPC over contended pairs",
		Cols:  []string{"policy", "SharedTLB", "MASK", "MASKgain%"},
	}
	variants := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"FR-FCFS/open-row", func(c *sim.Config) {}},
		{"FR-FCFS/closed-row", func(c *sim.Config) { c.DRAM.ClosedRowPolicy = true }},
		// FCFS replaces the baseline's FR-FCFS; MASK keeps its own
		// Address-Space-Aware scheduler.
		{"FCFS/open-row", func(c *sim.Config) {
			if c.DRAMPolicy == dram.FRFCFS {
				c.DRAMPolicy = dram.FCFS
			}
		}},
	}
	varied := func(base sim.Config, mut func(*sim.Config)) sim.Config {
		mut(&base)
		return base
	}
	var jobs []BatchJob
	for _, v := range variants {
		jobs = sensJobs(jobs, varied(sim.SharedTLBConfig(), v.mut))
		jobs = sensJobs(jobs, varied(sim.MASKConfig(), v.mut))
	}
	results, err := h.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, v := range variants {
		shared := sensMean(results, &i)
		mask := sensMean(results, &i)
		t.AddRowf(2, v.name, shared, mask, 100*(mask/shared-1))
	}
	return t, nil
}

func init() {
	register("sens-tlbsize", "L2 TLB size sweep 64-8192 entries (§7.3)", one(SensTLBSize))
	register("sens-pagesize", "2MB large-page sensitivity (§7.3)", one(SensPageSize))
	register("sens-memsched", "memory scheduler & row policy sensitivity (§7.3)", one(SensMemPolicy))
}
