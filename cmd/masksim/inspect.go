package main

// masksim -inspect-checkpoint: a human-readable dump of one checkpoint file.
// Lenient by design — a corrupt file still prints whatever the envelope
// preserved, and the exit status is non-zero only when the file cannot be
// read at all.

import (
	"fmt"
	"io"

	"masksim/sim"
)

func inspectCheckpoint(w io.Writer, path string) error {
	info, err := sim.InspectCheckpoint(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint: %s (%d bytes)\n", info.Path, info.Size)
	fmt.Fprintf(w, "  version:     %d\n", info.Version)
	status := "ok"
	if !info.ChecksumOK {
		status = "MISMATCH"
	}
	fmt.Fprintf(w, "  checksum:    %s\n", status)
	if info.Err != nil {
		fmt.Fprintf(w, "  defect:      %v\n", info.Err)
	}
	fmt.Fprintf(w, "  fingerprint: %s\n", info.Header.Fingerprint)
	fmt.Fprintf(w, "  cycle:       %d / %d\n", info.Header.Cycle, info.Header.TotalCycles)
	fmt.Fprintf(w, "  payload:     %d bytes\n", info.PayloadLen)
	if !info.PayloadOK {
		if info.PayloadErr != nil {
			fmt.Fprintf(w, "  payload defect: %v\n", info.PayloadErr)
		}
		return nil
	}
	fmt.Fprintf(w, "  clock:       now=%d ticked=%d skipped=%d\n",
		info.Clock.Ticked+info.Clock.Skipped, info.Clock.Ticked, info.Clock.Skipped)
	fmt.Fprintf(w, "  in flight:   %d requests, %d translations\n", info.Requests, info.TransReqs)
	fmt.Fprintf(w, "  fields (%d, by serialized size):\n", len(info.Fields))
	for _, f := range info.Fields {
		fmt.Fprintf(w, "    %-14s %8d bytes\n", f.Field, f.Bytes)
	}
	return nil
}
