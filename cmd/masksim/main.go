// Command masksim runs one multiprogrammed workload on one simulated GPU
// configuration and prints the collected statistics.
//
// Usage:
//
//	masksim -config MASK -apps 3DS,HISTO -cycles 100000
//	masksim -config SharedTLB -apps RED_RAY -cycles 50000 -speedup
//	masksim -config MASK -apps 3DS,HISTO -cycles 100000 \
//	        -checkpoint-dir ckpt -checkpoint-every 10000 -restore
//	masksim -tracefiles mum.trace.gz,gup.mtb -cycles 100000
//	masksim -config MASK -apps 3DS,HISTO -epoch 1000 -telemetry-csv tel.csv
//	masksim -list
//
// With -speedup, each app is additionally run alone on the same core count
// to report weighted speedup, IPC throughput, and unfairness.
//
// -tracefiles accepts both trace formats described in docs/FORMATS.md — the
// textual format and the indexed binary .mtb format — transparently
// gzip-decompressed when compressed, with identical simulation results
// regardless of encoding.
//
// Telemetry exports (-telemetry-csv, -telemetry-jsonl, -chrome-trace) are
// written incrementally as each epoch closes, holding telemetry memory
// constant in the run length. Combined with -restore, a resumed run truncates
// each output to the checkpoint's recorded offset and continues it
// byte-identically.
//
// With -checkpoint-dir, the run writes an atomic, checksummed checkpoint of
// the full simulator state every -checkpoint-every cycles, plus a final one
// on SIGINT/SIGTERM (the run stops, prints partial results, and the
// checkpoint captures the stopping cycle) and a crash dump if the watchdog
// aborts. Restarting with the same flags and -restore resumes from the
// newest valid checkpoint and prints results bit-identical to an
// uninterrupted run; corrupt or mismatched checkpoint files are skipped in
// favor of older ones (or a clean start) and reported on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"masksim/internal/faultinject"
	"masksim/internal/streamio"
	"masksim/internal/telemetry"
	"masksim/internal/workload"
	"masksim/sim"
)

func main() {
	var (
		configName = flag.String("config", "MASK", "configuration: "+strings.Join(sim.ConfigNames(), ", "))
		appsFlag   = flag.String("apps", "3DS,HISTO", "comma- or underscore-separated benchmark names")
		cycles     = flag.Int64("cycles", 100_000, "simulation length in core cycles")
		speedup    = flag.Bool("speedup", false, "also run each app alone and report multiprogramming metrics")
		list       = flag.Bool("list", false, "list benchmarks and configurations, then exit")
		epoch      = flag.Int64("epoch", 0, "telemetry sampling epoch in cycles (0 = telemetry off; see docs/OBSERVABILITY.md)")
		chromeOut  = flag.String("chrome-trace", "", "write a Chrome trace_event JSON (Perfetto-loadable) to this file; implies -epoch 1000 if unset")
		telCSV     = flag.String("telemetry-csv", "", "write the telemetry epoch time series as CSV to this file; implies -epoch 1000 if unset")
		telJSONL   = flag.String("telemetry-jsonl", "", "write telemetry samples and events as JSONL to this file; implies -epoch 1000 if unset")
		paging     = flag.Bool("paging", false, "enable the demand-paging extension (paper §5.5)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); partial results are printed on expiry")
		noFF       = flag.Bool("no-fastforward", false, "disable event-horizon fast-forward (tick every cycle); results are bit-identical either way")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after a GC) to this file")
		traceFiles = flag.String("tracefiles", "", "comma-separated trace files to run instead of -apps (see workload.ParseTrace for the format)")
		ckptDir    = flag.String("checkpoint-dir", "", "write mid-run checkpoints (and watchdog crash dumps) to this directory")
		ckptEvery  = flag.Int64("checkpoint-every", 10_000, "cycles between checkpoints (with -checkpoint-dir)")
		restore    = flag.Bool("restore", false, "resume from the newest valid checkpoint in -checkpoint-dir before simulating")
		killAt     = flag.Int64("kill-at-cycle", 0, "TESTING: hard-exit (code 137, like SIGKILL) at this simulated cycle; with -checkpoint-dir this deterministically exercises kill-and-restore")
		inspect    = flag.String("inspect-checkpoint", "", "describe a checkpoint file (header, checksum, per-component state sizes) and exit")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectCheckpoint(os.Stdout, *inspect); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		fmt.Println("configurations:", strings.Join(sim.ConfigNames(), " "))
		fmt.Println("benchmarks:", strings.Join(workload.Names(), " "))
		return
	}

	cfg, err := sim.ConfigByName(*configName)
	if err != nil {
		fatal(err)
	}
	names := splitApps(*appsFlag)
	if len(names) == 0 {
		fatal(fmt.Errorf("no applications given"))
	}

	// An output implies -epoch 1000 only when -epoch is not given: a value
	// given is passed through for Config.Validate to judge.
	epochSet := false
	flag.Visit(func(f *flag.Flag) { epochSet = epochSet || f.Name == "epoch" })
	if !epochSet && (*chromeOut != "" || *telCSV != "" || *telJSONL != "") {
		*epoch = 1000
	}
	cfg.TelemetryEpoch = *epoch
	if *paging {
		cfg.DemandPaging = true
	}
	if *noFF {
		cfg.FastForward = false
	}
	if *ckptDir != "" {
		cfg.CheckpointDir = *ckptDir
		cfg.CheckpointEvery = *ckptEvery
		cfg.Resume = *restore
	} else if *restore {
		fatal(fmt.Errorf("-restore requires -checkpoint-dir"))
	}
	if *killAt > 0 {
		cfg.FaultPlan = &faultinject.Plan{KillAtCycle: *killAt, AllowKill: true}
	}
	// Profiles bracket everything from here on (the run, telemetry export,
	// -speedup alone-runs). Explicit stop calls rather than a defer: the error
	// paths leave via os.Exit, which runs no defers.
	if stop, err := startProfiles(*cpuProf, *memProf); err != nil {
		fatal(err)
	} else {
		stopProfiles = stop
	}

	// A telemetry output attaches a streaming sink: each output receives its
	// epochs as they close, so telemetry memory stays O(1) in the run length.
	// With -restore the files are opened without truncation; a restored sink
	// cuts each one back to its checkpointed offset and continues
	// byte-identically.
	var sink *telemetry.StreamSink
	var sinkOuts []io.WriteCloser
	if *chromeOut != "" || *telCSV != "" || *telJSONL != "" {
		open := streamio.Create
		if *restore {
			open = streamio.CreateResumable
		}
		sink = telemetry.NewStreamSink()
		for _, o := range []struct {
			format telemetry.Format
			path   string
		}{
			{telemetry.FormatCSV, *telCSV},
			{telemetry.FormatJSONL, *telJSONL},
			{telemetry.FormatChrome, *chromeOut},
		} {
			if o.path == "" {
				continue
			}
			w, err := open(o.path)
			if err != nil {
				fatal(err)
			}
			sinkOuts = append(sinkOuts, w)
			if err := sink.Attach(o.format, w); err != nil {
				fatal(err)
			}
		}
		cfg.TelemetrySink = sink
	}
	// SIGINT and SIGTERM stop the run gracefully: partial results are printed
	// and, with -checkpoint-dir, a final checkpoint records the stopping cycle
	// so -restore can pick the run back up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var s *sim.Simulator
	if *traceFiles != "" {
		s, err = prepareTraceFiles(cfg, strings.Split(*traceFiles, ","))
	} else {
		s, err = sim.Prepare(cfg, names)
	}
	if err != nil {
		fatal(err)
	}
	res, err2 := s.Run(ctx, *cycles)
	if *ckptDir != "" {
		// Stats go to stderr so checkpointed and clean runs stay
		// byte-identical on stdout.
		cs := s.CheckpointStats()
		fmt.Fprintf(os.Stderr, "masksim: checkpoints: taken=%d restored=%d rejected=%d\n",
			cs.Taken, cs.Restored, cs.Rejected)
	}
	if err2 != nil && res == nil {
		// Config/build errors: report cleanly, no stack trace.
		fatal(err2)
	}
	fmt.Print(res)
	// Telemetry exports are finished even for aborted runs: the partial time
	// series and the watchdog.abort instant event are exactly what one wants
	// when debugging a wedged run. The epochs already went straight to the
	// files; closing the sink writes the tails and surfaces any deferred
	// write error.
	if sink != nil {
		if err := closeSink(sink, sinkOuts, *restore); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "masksim: telemetry streamed: %d bytes across %d outputs\n",
			sink.BytesWritten(), len(sinkOuts))
	}
	if err2 != nil {
		// Aborted run (watchdog, timeout, interrupt): the partial results
		// above are still useful; report why and exit non-zero.
		stopProfiles()
		fmt.Fprintln(os.Stderr, "masksim:", err2)
		os.Exit(1)
	}

	if *speedup {
		aloneCfg := sim.AlonePlatform(cfg)
		// The telemetry outputs belong to the shared run above; its sink
		// is already closed and cannot be bound again.
		aloneCfg.TelemetrySink = nil
		aloneCfg.TelemetryEpoch = 0
		split := sim.EvenSplit(cfg.Cores, len(names))
		alone := make([]float64, len(names))
		for i, n := range names {
			ar, err := sim.RunAlone(ctx, aloneCfg, n, split[i], *cycles)
			if err != nil {
				fatal(err)
			}
			alone[i] = ar.Apps[0].IPC
		}
		m := res.Metrics(alone)
		fmt.Printf("weighted speedup = %.3f   IPC throughput = %.3f   unfairness (max slowdown) = %.3f\n",
			m.WeightedSpeedup, m.IPCThroughput, m.Unfairness)
	}
	stopProfiles()
}

// stopProfiles finishes the -cpuprofile/-memprofile outputs; a no-op until
// startProfiles installs the real closer. fatal() and the abort path call it
// so profiles survive error exits.
var stopProfiles = func() {}

// startProfiles starts a CPU profile and/or arranges a heap profile, returning
// the function that stops the former and writes the latter.
func startProfiles(cpu, mem string) (func(), error) {
	stop := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if mem != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "masksim: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "masksim: memprofile:", err)
			}
			f.Close()
		}
	}
	return stop, nil
}

// splitApps accepts both "A,B" and the paper's "A_B" pair syntax.
func splitApps(s string) []string {
	f := func(r rune) bool { return r == ',' || r == '_' }
	return strings.FieldsFunc(s, f)
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "masksim:", err)
	os.Exit(1)
}

// closeSink finishes a streaming telemetry run: the sink writes its trailing
// epochs and flushes, then each output file is closed. Outputs opened
// resumably may still hold stale bytes from the interrupted run beyond the
// resumed stream's end (the restore truncates to the checkpoint offset, not
// the final length), so those are cut at the current write position.
func closeSink(sink *telemetry.StreamSink, outs []io.WriteCloser, resumable bool) error {
	err := sink.Close()
	for _, w := range outs {
		if t, ok := w.(streamio.Truncater); ok && resumable && err == nil {
			if pos, serr := t.Seek(0, io.SeekCurrent); serr == nil {
				t.Truncate(pos)
			}
		}
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// prepareTraceFiles loads external traces — text or binary .mtb, either
// gzipped — and builds the simulator that runs them as the workload.
func prepareTraceFiles(cfg sim.Config, paths []string) (*sim.Simulator, error) {
	var apps []workload.App
	for i, path := range paths {
		ts, err := workload.LoadTraceFile(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		apps = append(apps, workload.App{ID: i, Trace: ts})
	}
	return sim.New(cfg, apps, sim.EvenSplit(cfg.Cores, len(apps)))
}
