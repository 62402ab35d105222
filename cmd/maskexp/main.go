// Command maskexp regenerates the paper's tables and figures.
//
// Usage:
//
//	maskexp [-cycles N] [-full] [-workers N] [-timeout D] [-cache-dir DIR]
//	        [-checkpoint-dir DIR] [-checkpoint-every N]
//	        [-remote URL] [-api-key KEY]
//	        [-max-fail-frac F] <experiment-id>...
//	maskexp -list
//	maskexp all
//
// Experiment IDs follow DESIGN.md's per-experiment index (fig1, fig3, ...,
// tab3, tab4, comp-*, sens-*). Without -full, figure-11-class experiments
// use the representative pair subset to stay fast; -full runs all 35 pairs.
//
// All requested experiments run as one campaign over a single shared harness
// and result cache: experiments execute concurrently under the global
// -workers budget, and any two requests for the same (config, apps, cycles)
// simulation share one execution. Tables still print in the requested order,
// byte-identical to a sequential run. With -cache-dir, completed results are
// also persisted to disk so an interrupted campaign resumes without redoing
// finished cells. The campaign-wide run accounting (including cache
// hit/miss/inflight counters, and checkpoint taken/restored/rejected counts
// when -checkpoint-dir is set) is always printed to stderr at the end.
//
// With -remote, the campaign consults a maskd server's shared
// content-addressed store before simulating any cell and publishes completed
// results back, so a fleet of maskexp invocations across machines executes
// each distinct simulation once fleet-wide (see docs/SERVICE.md). The store
// is best-effort: an unreachable server degrades to local execution.
//
// With -checkpoint-dir, every in-flight simulation also writes periodic
// mid-run checkpoints (-checkpoint-every cycles apart) and resumes from them,
// so a campaign killed outright — not just interrupted between cells — loses
// at most one checkpoint interval of each in-flight run when restarted with
// the same flags.
//
// Individual simulation failures (panics, watchdog aborts, per-run timeouts)
// do not kill the campaign: the failed cell is recorded, means are computed
// over the surviving cells, and a failure summary is printed at the end.
// The exit status is non-zero only when the failed fraction of runs exceeds
// -max-fail-frac (default 0: any failure fails the command), an experiment
// produces no tables, or a CSV write fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"masksim/internal/experiments"
	"masksim/internal/maskd"
	"masksim/internal/streamio"
)

func main() {
	var (
		cycles      = flag.Int64("cycles", 50_000, "simulated cycles per run")
		full        = flag.Bool("full", false, "use all 35 workload pairs (slower)")
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		csvDir      = flag.String("csv", "", "also write each table as CSV into this directory")
		workers     = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget per simulation run (0 = none)")
		cacheDir    = flag.String("cache-dir", "", "persist completed simulation results here and reuse them on later runs")
		ckptDir     = flag.String("checkpoint-dir", "", "write mid-run checkpoints here and resume interrupted runs from them")
		ckptEvery   = flag.Int64("checkpoint-every", 10_000, "cycles between mid-run checkpoints (with -checkpoint-dir)")
		maxFailFrac = flag.Float64("max-fail-frac", 0, "tolerated fraction of failed runs before exiting non-zero")
		remote      = flag.String("remote", "", "maskd server URL: consult its shared result store before simulating and publish completed results back")
		apiKey      = flag.String("api-key", "", "tenant API key for -remote")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-14s %s\n", id, experiments.Describe(id))
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "maskexp: no experiment given; try -list")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.IDs()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "maskexp:", err)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Cycles:          *cycles,
		Full:            *full,
		Workers:         *workers,
		Ctx:             ctx,
		RunTimeout:      *timeout,
		CacheDir:        *cacheDir,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
	}
	var store *maskd.Client
	if *remote != "" {
		store = &maskd.Client{Base: *remote, APIKey: *apiKey}
		opt.Remote = store
	}
	camp := experiments.RunCampaign(args, opt)

	var broken []string
	var csvErrs []error
	for _, rep := range camp.Reports {
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "maskexp: %s: %v\n", rep.ID, rep.Err)
			broken = append(broken, rep.ID)
			continue
		}
		for _, t := range rep.Tables {
			fmt.Println(t)
			if *csvDir != "" {
				path := filepath.Join(*csvDir, t.ID+".csv")
				if err := writeTableCSV(path, t); err != nil {
					csvErrs = append(csvErrs, err)
				}
			}
		}
	}

	total := camp.Stats
	fmt.Fprintf(os.Stderr, "maskexp: %s\n", total.String())
	if store != nil {
		if n := store.TransportErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "maskexp: remote: %d store round-trips failed (fell back to local execution)\n", n)
		}
	}
	for _, f := range camp.Failures {
		fmt.Fprintf(os.Stderr, "maskexp:   %v\n", f)
	}
	for _, id := range broken {
		fmt.Fprintf(os.Stderr, "maskexp: experiment %s did not produce tables\n", id)
	}
	for _, err := range csvErrs {
		fmt.Fprintf(os.Stderr, "maskexp: csv: %v\n", err)
	}
	if frac := total.FailureFrac(); len(broken) > 0 || len(csvErrs) > 0 || frac > *maxFailFrac {
		if frac > *maxFailFrac {
			fmt.Fprintf(os.Stderr, "maskexp: failure fraction %.3f exceeds -max-fail-frac %.3f\n", frac, *maxFailFrac)
		}
		os.Exit(1)
	}
}

// writeTableCSV streams one result table into path (gzip-compressed for ".gz"
// names), propagating the first write error.
func writeTableCSV(path string, t *experiments.Table) error {
	f, err := streamio.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
