// Package snapshot implements the on-disk envelope for simulator
// checkpoints: a magic-tagged, version-stamped, fingerprint-keyed container
// whose payload is guarded by a SHA-256 checksum. The envelope is
// deliberately dumb — it carries opaque payload bytes and enough metadata to
// reject the three ways a checkpoint can be unusable (wrong format, wrong
// simulation, corrupted bytes) with a structured error each, so callers can
// fall back to a clean start instead of panicking on garbage.
//
// The package also owns WriteFileAtomic, the crash-durable tmp+rename+fsync
// helper shared by checkpoint writes and the simcache on-disk layer.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// magic identifies a masksim checkpoint file.
var magic = [4]byte{'M', 'S', 'K', 'P'}

// Version is the current envelope+payload format version. Bump it whenever
// any component's serialized state changes shape or meaning (see
// docs/MODEL.md §9); old files are then rejected with a *VersionError
// instead of being misdecoded.
//
// Version history:
//
//	1 — initial format
//	2 — per-core request pools: the checkpoint payload carries pool and
//	    ID-generator state as slices, one entry per pool of the fixed
//	    shared + per-core layout
//	3 — typed return routes: a request records the engine registration
//	    index of the component it returns to plus a tag (the site stamps
//	    are gone), L1 miss images carry their (warp, page slot) waiters,
//	    warps the memory instruction they are blocked on, held walks their
//	    frame; CoreState.ReadyCount, Ctxs, CtxFree and CacheState.SnapID
//	    are gone
//	4 — self-contained images: one typed payload struct instead of a map of
//	    per-ticker states; every request written inline by the container
//	    that holds it (no request registry, no IDs), every translation by
//	    its L1 TLB miss tracker and named elsewhere by (core, VPN); no map
//	    in any image
//	5 — no allocator state: one request pool and one translation pool per
//	    simulator, so no pool images, pool IDs or free-list lengths; the
//	    blocked-warp and per-app walk counts are recounted on restore
//	6 — one time series: the payload no longer carries the second sampler's
//	    samples and window counters; the telemetry collector's state is the
//	    only series an image holds
//	7 — no frames: TLB entries, shared-TLB lines and fault-held walks no
//	    longer carry one (a core reads it from its address space), and a
//	    request image no longer carries an ASID
//	8 — a request's image is the request: it records its sink by its
//	    number in the request pool's sink table, which build order fixes,
//	    not by engine registration index, and carries its served level
//	9 — one queue image: every FIFO (bank queues, retry lists, the L2 TLB's
//	    input and stalled queues, the walker's pending walks, the fault
//	    queue) writes its items as engine.QueueItem, each with its ready
//	    cycle
//	10 — no latency sums: a cache image no longer carries per-class latency
//	    sums and counts, nor a histogram image its sample sum; fingerprints
//	    hash sim.Config.Key (the Machine and the telemetry epoch)
//	11 — the image is the state: cache and shared-TLB lines, TLB entries,
//	    walks, faults, warps, counters and policy state are written as the
//	    component's own structs (page keys as memreq.PageKey), so field
//	    names and nesting changed; a histogram image is a fixed bucket array
//	12 — nothing a restore recounts: the clock image has no cycle (it is
//	    Ticked + Skipped), the token policy no per-app "epoch seen" flags
//	    (FirstEpoch says it) and a warp image no pending-translation count
//	    (its L1 TLB's waiters say it)
const Version uint32 = 12

// maxMetaLen bounds the fingerprint length so a corrupt header cannot make
// Read attempt a huge allocation.
const maxMetaLen = 1 << 16

// Header is the envelope metadata stored alongside the payload.
type Header struct {
	// Fingerprint identifies the simulation this checkpoint belongs to
	// (config + apps + cycle budget, sim.Simulator.Fingerprint).
	Fingerprint string
	// Cycle is the simulated cycle the state was captured at.
	Cycle int64
	// TotalCycles is the cycle budget of the interrupted run; a restored run
	// must be resumed with the same budget to stay bit-identical.
	TotalCycles int64
}

// Structured rejection errors. Every defect a checkpoint file can have maps
// to exactly one of these (wrapped with context), so restore paths can
// distinguish "not a checkpoint" from "stale format" from "bit rot".
var (
	// ErrBadMagic: the file does not start with the checkpoint magic.
	ErrBadMagic = errors.New("snapshot: bad magic (not a checkpoint file)")
	// ErrChecksum: the trailing SHA-256 does not match the content.
	ErrChecksum = errors.New("snapshot: checksum mismatch (corrupt checkpoint)")
	// ErrTruncated: the file ends before the declared content does.
	ErrTruncated = errors.New("snapshot: truncated checkpoint")
)

// VersionError reports a version-stamped envelope from a different format
// generation.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: version %d not supported (want %d)", e.Got, e.Want)
}

// Write serializes header and payload to w:
//
//	magic[4] | version u32 | fpLen u32 | fingerprint | cycle i64 |
//	totalCycles i64 | payloadLen u64 | payload | sha256[32]
//
// all little-endian, with the checksum covering every preceding byte.
func Write(w io.Writer, h Header, payload []byte) error {
	var buf bytes.Buffer
	buf.Write(magic[:])
	le := binary.LittleEndian
	var u32 [4]byte
	var u64 [8]byte
	le.PutUint32(u32[:], Version)
	buf.Write(u32[:])
	le.PutUint32(u32[:], uint32(len(h.Fingerprint)))
	buf.Write(u32[:])
	buf.WriteString(h.Fingerprint)
	le.PutUint64(u64[:], uint64(h.Cycle))
	buf.Write(u64[:])
	le.PutUint64(u64[:], uint64(h.TotalCycles))
	buf.Write(u64[:])
	le.PutUint64(u64[:], uint64(len(payload)))
	buf.Write(u64[:])
	buf.Write(payload)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// Seal computes the trailing checksum Write appends over body. Exposed so
// tests can craft envelopes whose only defect is the field under test.
func Seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return sum[:]
}

// Read parses an envelope written by Write directly from r, verifying
// magic, version and checksum. Unlike Decode it streams: the header and
// payload are consumed through a running SHA-256, so the only payload-sized
// allocation is the returned payload itself — a restore holds one copy of
// the state bytes, not the whole raw file plus the decoded copy.
//
// The error taxonomy matches Decode with one streaming-imposed nuance:
// Decode verifies the checksum before parsing anything, while Read must
// parse as it goes, so a length field corrupted into an unservable value
// (an oversized fingerprint, a payload running past end of file) surfaces
// as ErrTruncated rather than ErrChecksum. The version verdict is still
// deferred until the checksum has been verified, so a corrupt version field
// reports corruption, not a format mismatch.
func Read(r io.Reader) (Header, []byte, error) {
	var h Header
	hash := sha256.New()
	tee := io.TeeReader(r, hash)

	var head [12]byte // magic, version u32, fpLen u32
	if err := readFull(tee, head[:]); err != nil {
		return h, nil, err
	}
	if !bytes.Equal(head[:4], magic[:]) {
		return h, nil, ErrBadMagic
	}
	le := binary.LittleEndian
	version := le.Uint32(head[4:])
	fpLen := le.Uint32(head[8:])
	if fpLen > maxMetaLen {
		return h, nil, ErrTruncated
	}
	meta := make([]byte, int(fpLen)+24)
	if err := readFull(tee, meta); err != nil {
		return h, nil, err
	}
	h.Fingerprint = string(meta[:fpLen])
	h.Cycle = int64(le.Uint64(meta[fpLen:]))
	h.TotalCycles = int64(le.Uint64(meta[fpLen+8:]))
	payloadLen := le.Uint64(meta[fpLen+16:])

	payload, err := readPayload(tee, payloadLen)
	if err != nil {
		return Header{}, nil, err
	}
	want := hash.Sum(nil)
	// The trailing checksum is read from r, not the tee: it does not cover
	// itself.
	var sum [sha256.Size]byte
	if err := readFull(r, sum[:]); err != nil {
		return Header{}, nil, err
	}
	if !bytes.Equal(want, sum[:]) {
		return Header{}, nil, ErrChecksum
	}
	if version != Version {
		return Header{}, nil, &VersionError{Got: version, Want: Version}
	}
	return h, payload, nil
}

// readFull fills buf from r, mapping a short read to ErrTruncated.
func readFull(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return fmt.Errorf("snapshot: read: %w", err)
	}
	return nil
}

// Payload reads are chunked and the initial allocation capped so a corrupt
// length field cannot demand an arbitrary up-front allocation: a declared
// length the file cannot back stops at ErrTruncated after at most one extra
// chunk.
const (
	payloadChunk        = 64 << 20
	payloadInitialAlloc = 1 << 30
)

// readPayload reads exactly n payload bytes from r.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	capHint := n
	if capHint > payloadInitialAlloc {
		capHint = payloadInitialAlloc
	}
	buf := make([]byte, 0, capHint)
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > payloadChunk {
			step = payloadChunk
		}
		off := uint64(len(buf))
		if uint64(cap(buf)) >= off+step {
			buf = buf[:off+step]
		} else {
			newCap := uint64(cap(buf)) * 2
			if newCap < off+step {
				newCap = off + step
			}
			grown := make([]byte, off+step, newCap)
			copy(grown, buf)
			buf = grown
		}
		if err := readFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Info is a lenient description of an envelope for post-mortem tooling
// (masksim -inspect-checkpoint). Unlike Decode, Inspect keeps going past
// defects so a corrupt or stale file can still be described: Err carries the
// structured rejection Decode would have returned, while the fields hold
// whatever could be recovered.
type Info struct {
	// Header holds the recovered metadata (best-effort when Err != nil).
	Header Header
	// Version is the envelope's stamped format version (0 if unreadable).
	Version uint32
	// PayloadLen is the length of the recovered payload in bytes.
	PayloadLen int
	// ChecksumOK reports whether the trailing SHA-256 matched the content.
	ChecksumOK bool
	// Payload is the raw payload (only trustworthy when Err == nil).
	Payload []byte
	// Err classifies the defect, if any: ErrBadMagic, ErrChecksum,
	// ErrTruncated or *VersionError — the same taxonomy as Decode.
	Err error
}

// Inspect parses raw as leniently as possible. The header fields of a
// checksum-corrupt or version-mismatched file are still decoded (they may
// themselves be damaged — that is what Err warns about); only a bad magic or
// a header too short to parse leaves them zero.
func Inspect(raw []byte) Info {
	info := Info{}
	if len(raw) < len(magic) || !bytes.Equal(raw[:len(magic)], magic[:]) {
		info.Err = ErrBadMagic
		if len(raw) < len(magic) {
			info.Err = ErrTruncated
		}
		return info
	}
	if len(raw) >= len(magic)+sha256.Size {
		body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
		got := sha256.Sum256(body)
		info.ChecksumOK = bytes.Equal(got[:], sum)
		if info.ChecksumOK {
			raw = body // exclude the checksum from header/payload parsing
		}
	}
	p := raw[len(magic):]
	if len(p) < 8 {
		info.Err = ErrTruncated
		return info
	}
	le := binary.LittleEndian
	info.Version = le.Uint32(p)
	fpLen := le.Uint32(p[4:])
	p = p[8:]
	if fpLen > maxMetaLen || uint64(len(p)) < uint64(fpLen)+24 {
		info.Err = ErrTruncated
		return info
	}
	info.Header.Fingerprint = string(p[:fpLen])
	p = p[fpLen:]
	info.Header.Cycle = int64(le.Uint64(p))
	info.Header.TotalCycles = int64(le.Uint64(p[8:]))
	payloadLen := le.Uint64(p[16:])
	p = p[24:]
	switch {
	case !info.ChecksumOK:
		info.Err = ErrChecksum
		// The declared payload may overrun what is present; clamp.
		if uint64(len(p)) < payloadLen {
			payloadLen = uint64(len(p))
		}
	case info.Version != Version:
		info.Err = &VersionError{Got: info.Version, Want: Version}
	case uint64(len(p)) != payloadLen:
		info.Err = ErrTruncated
		if uint64(len(p)) < payloadLen {
			payloadLen = uint64(len(p))
		}
	}
	info.Payload = p[:payloadLen]
	info.PayloadLen = len(info.Payload)
	return info
}

// Decode parses an in-memory envelope (see Read).
func Decode(raw []byte) (Header, []byte, error) {
	var h Header
	if len(raw) < len(magic) {
		return h, nil, ErrTruncated
	}
	if !bytes.Equal(raw[:len(magic)], magic[:]) {
		return h, nil, ErrBadMagic
	}
	// Checksum first: any flipped byte — header or payload — is reported as
	// corruption rather than decoded into nonsense.
	if len(raw) < len(magic)+sha256.Size {
		return h, nil, ErrTruncated
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return h, nil, ErrChecksum
	}
	le := binary.LittleEndian
	p := body[len(magic):]
	if len(p) < 8 {
		return h, nil, ErrTruncated
	}
	if v := le.Uint32(p); v != Version {
		return h, nil, &VersionError{Got: v, Want: Version}
	}
	fpLen := le.Uint32(p[4:])
	p = p[8:]
	if fpLen > maxMetaLen || uint64(len(p)) < uint64(fpLen)+24 {
		return h, nil, ErrTruncated
	}
	h.Fingerprint = string(p[:fpLen])
	p = p[fpLen:]
	h.Cycle = int64(le.Uint64(p))
	h.TotalCycles = int64(le.Uint64(p[8:]))
	payloadLen := le.Uint64(p[16:])
	p = p[24:]
	if uint64(len(p)) != payloadLen {
		return h, nil, ErrTruncated
	}
	return h, p, nil
}
