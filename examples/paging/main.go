// Paging: the §5.5 future-work extension in action — demand paging with
// first-touch major faults. Shows the cold-start penalty, how residency
// builds over time (via the telemetry time series), and that MASK's ordering survives
// paging.
//
//	go run ./examples/paging
package main

import (
	"context"
	"fmt"
	"log"

	"masksim/sim"
)

func main() {
	const cycles = 40_000
	pair := []string{"3DS", "CONS"}

	fmt.Println("== cold start under demand paging (3DS_CONS) ==")
	fmt.Println("config     faultLat  totalIPC  faults  avgFaultLat")
	for _, cfgName := range []string{"SharedTLB", "MASK"} {
		base, err := sim.ConfigByName(cfgName)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(context.Background(), base, pair, cycles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s  %-8s  %-8.2f  %-6d  %s\n", cfgName, "none", res.TotalIPC, 0, "-")

		cfg := base
		cfg.DemandPaging = true
		cfg.FaultLatency = 10_000 // ~10µs host transfer
		res, err = sim.Run(context.Background(), cfg, pair, cycles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s  %-8d  %-8.2f  %-6d  %.0f\n", cfgName, cfg.FaultLatency,
			res.TotalIPC, res.Faults.Faults, res.Faults.AvgLatency())
	}

	// Residency build-up: IPC recovers as the working set pages in.
	fmt.Println("\n== warm-up time series (MASK, faultLat=10000) ==")
	cfg := sim.MASKConfig()
	cfg.DemandPaging = true
	cfg.FaultLatency = 10_000
	cfg.TelemetryEpoch = 5_000
	res, err := sim.Run(context.Background(), cfg, pair, cycles)
	if err != nil {
		log.Fatal(err)
	}
	tel := res.Telemetry
	faults := tel.ColumnIndex("faults/outstanding")
	fmt.Println("cycle    epochIPC   outstandingFaults")
	start := int64(0)
	for _, s := range tel.Samples {
		var instr float64
		for app := range pair {
			instr += s.Values[tel.ColumnIndex(fmt.Sprintf("app%d/instructions", app))]
		}
		fmt.Printf("%-7d  %-9.2f  %.0f\n", s.Cycle, instr/float64(s.Cycle-start), s.Values[faults])
		start = s.Cycle
	}
}
