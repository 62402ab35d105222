// Scheduler: watch the memory hierarchy's translation/data interplay on an
// interference-heavy pair under four DRAM/cache policies — baseline
// FR-FCFS, plain FCFS, MASK's Address-Space-Aware scheduler, and full MASK.
//
//	go run ./examples/scheduler
package main

import (
	"context"
	"fmt"
	"log"

	"masksim/internal/dram"
	"masksim/internal/memreq"
	"masksim/sim"
)

func main() {
	const cycles = 25_000
	pair := []string{"SCAN", "CONS"} // the paper's Silver-Queue case study pair

	type variant struct {
		name string
		cfg  sim.Config
	}
	frfcfs := sim.SharedTLBConfig()
	fcfs := sim.SharedTLBConfig()
	fcfs.DRAMPolicy = dram.FCFS
	maskDRAM := sim.MASKDRAMConfig()
	mask := sim.MASKConfig()

	fmt.Println("policy          totalIPC  transDRAMLat  dataDRAMLat  transBW%  walkLat")
	for _, v := range []variant{
		{"FR-FCFS", frfcfs},
		{"FCFS", fcfs},
		{"MASK-DRAM", maskDRAM},
		{"MASK (full)", mask},
	} {
		res, err := sim.Run(context.Background(), v.cfg, pair, cycles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s  %-8.2f  %-12.0f  %-11.0f  %-8.2f  %.0f\n",
			v.name, res.TotalIPC,
			res.DRAMClass[memreq.Translation].AvgLatency(),
			res.DRAMClass[memreq.Data].AvgLatency(),
			100*res.DRAMBandwidthUtil[memreq.Translation],
			res.Walker.AvgLatency())
	}

	fmt.Println("\nper-app IPC (fairness view):")
	for _, v := range []variant{{"FR-FCFS", frfcfs}, {"MASK (full)", mask}} {
		res, err := sim.Run(context.Background(), v.cfg, pair, cycles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %s=%.2f  %s=%.2f\n", v.name,
			res.Apps[0].Name, res.Apps[0].IPC, res.Apps[1].Name, res.Apps[1].IPC)
	}
}
