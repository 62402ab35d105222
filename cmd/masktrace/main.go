// Command masktrace is the trace-file tool: it converts memory traces
// between their encodings, summarises an .mtb file, and validates the
// Chrome traces masksim writes. Simulation runs belong to masksim.
//
// Usage:
//
//	masktrace convert mum.trace mum.mtb
//	masktrace convert mum.mtb mum.trace.gz
//	masktrace info mum.mtb
//	masktrace check trace.json
//
// The convert subcommand rewrites a memory trace between the two supported
// encodings (docs/FORMATS.md): the input format is sniffed from its leading
// bytes (text or binary .mtb, either gzip-compressed), the output format is
// chosen by extension — ".mtb" writes the indexed binary format, anything
// else the canonical text format, gzip-compressed when the name ends in
// ".gz". The info subcommand decodes an .mtb file and prints its warp count
// and per-warp entry counts. The check subcommand re-reads a Chrome
// trace_event JSON (masksim -chrome-trace; gzip-compressed or not) and
// validates it — monotonic timestamps, required fields — exiting non-zero on
// failure; CI uses this as an end-to-end smoke test. See
// docs/OBSERVABILITY.md for the probe catalogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"masksim/internal/streamio"
	"masksim/internal/telemetry"
	"masksim/internal/workload"
)

func main() {
	cmds := map[string]func([]string) error{"convert": convertCmd, "info": infoCmd, "check": checkCmd}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: masktrace convert|info|check ARGS")
		os.Exit(2)
	}
	if err := cmds[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "masktrace:", err)
		os.Exit(1)
	}
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

// infoCmd implements "masktrace info <file.mtb>": decode the file, which
// checks every section against the footer, and print its warp count and
// per-warp entry counts.
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
	f, err := streamio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ts, err := workload.DecodeMTB(workload.TraceName(path), f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d warps\n", path, len(ts.Warps))
	for i, w := range ts.Warps {
		fmt.Printf("  warp %3d: %8d entries\n", i, len(w))
	}
	return nil
}

// checkCmd implements "masktrace check <trace.json[.gz]>": re-read a Chrome
// trace and check the invariants the trace viewers rely on.
func checkCmd(args []string) error {
	fs := flag.NewFlagSet("masktrace check", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: masktrace check <trace.json[.gz]>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	f, err := streamio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := telemetry.ValidateChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: trace validation failed: %w", path, err)
	}
	fmt.Printf("%s: %d trace events validated\n", path, n)
	return nil
}
