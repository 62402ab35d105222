// Command masktrace runs one multiprogrammed workload with the telemetry
// subsystem enabled and streams the time series, epoch by epoch, as a Chrome
// trace_event JSON (loadable in ui.perfetto.dev or chrome://tracing) plus
// optional CSV/JSONL companions.
//
// Usage:
//
//	masktrace -config MASK -apps 3DS,CONS -cycles 50000 -out trace.json
//	masktrace -apps RED_RAY -epoch 500 -out trace.json -csv series.csv
//	masktrace -apps 3DS,CONS -out trace.json -check
//	masktrace convert mum.trace mum.mtb
//	masktrace convert mum.mtb mum.trace.gz
//	masktrace info mum.mtb
//
// With -check the written trace is re-read and validated (monotonic
// timestamps, required fields); CI uses this as an end-to-end smoke test.
// See docs/OBSERVABILITY.md for the probe catalogue.
//
// The convert subcommand rewrites a memory trace between the two supported
// encodings (docs/FORMATS.md): the input format is sniffed from its leading
// bytes (text or binary .mtb, either gzip-compressed), the output format is
// chosen by extension — ".mtb" writes the indexed binary format, anything
// else the canonical text format, gzip-compressed when the name ends in
// ".gz". The info subcommand prints an .mtb file's footer index without
// decoding the warp sections.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"masksim/internal/streamio"
	"masksim/internal/telemetry"
	"masksim/internal/workload"
	"masksim/sim"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "convert":
			if err := convertCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "info":
			if err := infoCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		configName = flag.String("config", "MASK", "configuration: "+strings.Join(sim.ConfigNames(), ", "))
		appsFlag   = flag.String("apps", "3DS,CONS", "comma- or underscore-separated benchmark names")
		cycles     = flag.Int64("cycles", 50_000, "simulation length in core cycles")
		epoch      = flag.Int64("epoch", 1000, "telemetry sampling epoch in cycles")
		out        = flag.String("out", "trace.json", "Chrome trace_event JSON output path")
		csvOut     = flag.String("csv", "", "also write the epoch time series as CSV to this file")
		jsonlOut   = flag.String("jsonl", "", "also write samples and events as JSONL to this file")
		check      = flag.Bool("check", false, "re-read and validate the written trace, exiting non-zero on failure")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none)")
	)
	flag.Parse()

	cfg, err := sim.ConfigByName(*configName)
	if err != nil {
		fatal(err)
	}
	cfg.TelemetryEpoch = *epoch
	names := strings.FieldsFunc(*appsFlag, func(r rune) bool { return r == ',' || r == '_' })
	if len(names) == 0 {
		fatal(fmt.Errorf("no applications given"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The sink writes every output as each epoch closes; nothing accumulates.
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}
	sink := telemetry.NewStreamSink()
	var outs []io.WriteCloser
	for _, o := range []struct {
		format telemetry.Format
		path   string
	}{{telemetry.FormatChrome, *out}, {telemetry.FormatCSV, *csvOut}, {telemetry.FormatJSONL, *jsonlOut}} {
		if o.path == "" {
			continue
		}
		w, err := streamio.Create(o.path)
		if err != nil {
			fatal(err)
		}
		outs = append(outs, w)
		if err := sink.Attach(o.format, w); err != nil {
			fatal(err)
		}
	}
	cfg.TelemetrySink = sink

	res, runErr := sim.Run(ctx, cfg, names, *cycles)
	if runErr != nil && res == nil {
		fatal(runErr)
	}
	err = sink.Close()
	for _, w := range outs {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d columns, epochs through cycle %d (epoch %d cycles), %d bytes across %d outputs\n",
		*out, len(res.Telemetry.Columns), sink.HighWater(), res.Telemetry.Epoch, sink.BytesWritten(), len(outs))

	if *check {
		f, err := streamio.Open(*out)
		if err != nil {
			fatal(err)
		}
		n, err := telemetry.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("trace validation failed: %w", err))
		}
		fmt.Printf("check: %d trace events validated\n", n)
	}

	if runErr != nil {
		// Aborted run: the exports above carry the partial series and the
		// watchdog.abort event; report why and exit non-zero.
		fmt.Fprintln(os.Stderr, "masktrace:", runErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "masktrace:", err)
	os.Exit(1)
}

// convertCmd implements "masktrace convert <in> <out>": load a trace in
// either format (sniffed) and rewrite it in the format the output extension
// names. Conversion round-trips exactly — text -> .mtb -> text reproduces
// the canonical rendering of the input.
func convertCmd(args []string) error {
	fs := flag.NewFlagSet("masktrace convert", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: masktrace convert <in[.trace|.mtb][.gz]> <out[.trace|.mtb][.gz]>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	in, out := fs.Arg(0), fs.Arg(1)

	ts, err := workload.LoadTraceFile(in)
	if err != nil {
		return err
	}
	f, err := streamio.Create(out)
	if err != nil {
		return err
	}
	if strings.HasSuffix(strings.TrimSuffix(out, ".gz"), ".mtb") {
		err = ts.EncodeMTB(f)
	} else {
		err = ts.WriteText(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	entries := 0
	for _, w := range ts.Warps {
		entries += len(w)
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "masktrace: %s: %d warps, %d entries -> %s (%d bytes)\n",
		in, len(ts.Warps), entries, out, st.Size())
	return nil
}

// infoCmd implements "masktrace info <file.mtb>": print the footer index —
// warp count and per-section byte extents — without decoding any section.
func infoCmd(args []string) error {
	fs := flag.NewFlagSet("masktrace info", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: masktrace info <file.mtb>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	ix, err := workload.ReadMTBIndex(f, st.Size())
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes, %d warp sections\n", path, st.Size(), ix.Warps())
	for i := range ix.Offsets {
		fmt.Printf("  warp %3d: offset %8d  length %8d\n", i, ix.Offsets[i], ix.Lengths[i])
	}
	return nil
}
