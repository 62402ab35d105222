package sim

// Checkpoint inspection for the masksim -inspect-checkpoint tool: a lenient,
// read-only decode that answers "what is this file?" even when the envelope
// is damaged. Unlike a resume, nothing here refuses a corrupt file —
// it reports as much structure as survives so an operator can decide whether
// the checkpoint is salvageable, stale, or foreign.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"sort"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/snapshot"
)

// FieldSize is the serialized footprint of one field of a checkpoint payload.
type FieldSize struct {
	// Field names the payload field: "Cores", "L2C", "DRAM", ...
	Field string
	// Bytes is the field's standalone gob encoding size — a relative weight
	// for spotting which component dominates the file, not an exact share of
	// the payload (the combined encoding dedupes type descriptors).
	Bytes int
}

// CheckpointInfo is everything InspectCheckpoint can recover from a file.
type CheckpointInfo struct {
	Path string
	// Size is the file size in bytes.
	Size int64
	// Header is the envelope header (fingerprint, cycle, total budget). Valid
	// whenever Err is nil or ErrChecksum — see snapshot.Inspect.
	Header snapshot.Header
	// Version is the envelope format version found in the file.
	Version uint32
	// ChecksumOK reports whether the trailing SHA-256 matched.
	ChecksumOK bool
	// PayloadLen is the gob payload length in bytes.
	PayloadLen int
	// Err is the envelope defect, if any (snapshot.ErrBadMagic, ErrTruncated,
	// ErrChecksum, *snapshot.VersionError).
	Err error

	// The fields below describe the decoded payload; PayloadOK reports
	// whether they are populated (an intact envelope can still carry a gob
	// stream this build cannot decode).
	PayloadOK  bool
	PayloadErr error
	// Clock is the engine clock state at capture.
	Clock engine.ClockState
	// Fields lists the payload's present fields by size, largest first: a
	// supervised run carries a Watchdog, an L2-bypass run an ATA, and so on.
	Fields []FieldSize
	// Requests and TransReqs count the requests and translations the image
	// holds: the request images its components wrote, and the L1 TLB miss
	// trackers. A request a fault plan stranded (a dropped DRAM response)
	// is held by no component and is not among them.
	Requests  uint64
	TransReqs uint64
}

// InspectCheckpoint reads and describes one checkpoint file without building
// a simulator. The returned error covers only I/O (unreadable file); format
// defects land in CheckpointInfo.Err / PayloadErr so the tool can still print
// whatever was recovered.
func InspectCheckpoint(path string) (*CheckpointInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ins := snapshot.Inspect(raw)
	info := &CheckpointInfo{
		Path:       path,
		Size:       int64(len(raw)),
		Header:     ins.Header,
		Version:    ins.Version,
		ChecksumOK: ins.ChecksumOK,
		PayloadLen: ins.PayloadLen,
		Err:        ins.Err,
	}
	if len(ins.Payload) == 0 || ins.Version != snapshot.Version {
		return info, nil // nothing to decode, or a format this build does not read
	}
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(ins.Payload)).Decode(&p); err != nil {
		info.PayloadErr = fmt.Errorf("sim: decode checkpoint payload: %w", err)
		return info, nil
	}
	info.PayloadOK = true
	info.Clock = p.Clock
	for _, t := range p.L1TLBs {
		info.TransReqs += uint64(len(t.Mshrs))
	}
	v := reflect.ValueOf(p)
	info.Requests = countRequests(v)
	for i := 0; i < v.NumField(); i++ {
		var buf bytes.Buffer
		if f := v.Field(i); !f.IsZero() && gob.NewEncoder(&buf).EncodeValue(f) == nil {
			info.Fields = append(info.Fields, FieldSize{Field: v.Type().Field(i).Name, Bytes: buf.Len()})
		}
	}
	sort.SliceStable(info.Fields, func(i, j int) bool { return info.Fields[i].Bytes > info.Fields[j].Bytes })
	return info, nil
}

// countRequests counts the request images v holds, wherever they are held.
func countRequests(v reflect.Value) (n uint64) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[memreq.Request]() {
			return 1
		}
		for i := 0; i < v.NumField(); i++ {
			n += countRequests(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += countRequests(v.Index(i))
		}
	case reflect.Pointer:
		return countRequests(v.Elem()) // a nil pointer's Elem is invalid: 0
	}
	return n
}
