package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"masksim/internal/snapshot"
)

func TestInspectCheckpoint(t *testing.T) {
	const cycles = 3000
	dir := t.TempDir()
	cfg := MASKConfig()
	cfg.CheckpointEvery = 1300
	cfg.CheckpointDir = dir
	src := prepareScenario(t, cfg, []string{"3DS", "CONS"}, 0)
	src.mustRun(t, cycles)

	path := src.checkpointPath(2600)
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Err != nil || !info.ChecksumOK {
		t.Fatalf("healthy checkpoint reported defective: %+v", info)
	}
	if info.Header.Fingerprint != src.Fingerprint() || info.Header.Cycle != 2600 || info.Header.TotalCycles != cycles {
		t.Fatalf("header = %+v, want fp=%s cycle=2600 total=%d", info.Header, src.Fingerprint(), cycles)
	}
	if !info.PayloadOK {
		t.Fatalf("payload not decoded: %v", info.PayloadErr)
	}
	if now := info.Clock.Ticked + info.Clock.Skipped; now != 2600 {
		t.Fatalf("clock = %+v, at cycle %d, want 2600", info.Clock, now)
	}
	if len(info.Fields) == 0 {
		t.Fatal("no payload fields reported")
	}
	// Largest first, every entry named and sized.
	for i, f := range info.Fields {
		if f.Field == "" || f.Bytes <= 0 {
			t.Fatalf("field %d = %+v, want a name and a positive size", i, f)
		}
		if i > 0 && f.Bytes > info.Fields[i-1].Bytes {
			t.Fatalf("fields not sorted largest-first: %+v", info.Fields)
		}
	}
	// A MASK run serializes cores, TLBs, caches and DRAM; spot-check one.
	if !slices.ContainsFunc(info.Fields, func(f FieldSize) bool { return f.Field == "Cores" }) {
		t.Fatalf("no Cores among the fields: %+v", info.Fields)
	}
	// The in-flight counts are what the image holds: every request image, and
	// every L1 TLB miss. A simulator restored from it holds as many.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := decodePayload(t, data)
	var misses uint64
	for _, l1 := range p.L1TLBs {
		misses += uint64(len(l1.Mshrs))
	}
	if info.Requests == 0 || info.Requests != uint64(len(requestImages(&p))) || info.Translations != misses {
		t.Fatalf("inspection counts %d requests and %d translations in flight, image holds %d and %d",
			info.Requests, info.Translations, len(requestImages(&p)), misses)
	}
	dst := prepareScenario(t, MASKConfig(), []string{"3DS", "CONS"}, 0)
	if err := dst.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, l1 := range dst.l1tlbs {
		open += len(l1.SnapshotState().Mshrs)
	}
	if info.Requests != uint64(dst.reqPool.Live()) || info.Translations != uint64(open) {
		t.Fatalf("inspection counts %d requests and %d translations in flight, the restored simulator %d and %d",
			info.Requests, info.Translations, dst.reqPool.Live(), open)
	}
}

func TestInspectCheckpointCorruptAndForeign(t *testing.T) {
	const cycles = 2000
	dir := t.TempDir()
	cfg := MASKConfig()
	cfg.CheckpointEvery = 900
	cfg.CheckpointDir = dir
	src := prepareScenario(t, cfg, []string{"3DS", "CONS"}, 0)
	src.mustRun(t, cycles)
	path := src.checkpointPath(1800)

	// Flip one payload byte: checksum fails, but the header survives.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := InspectCheckpoint(bad)
	if err != nil {
		t.Fatalf("inspect corrupt: %v", err)
	}
	if !errors.Is(info.Err, snapshot.ErrChecksum) || info.ChecksumOK {
		t.Fatalf("corrupt checkpoint not flagged: %+v", info)
	}
	if info.Header.Fingerprint != src.Fingerprint() {
		t.Fatalf("header lost on corruption: %+v", info.Header)
	}

	// A foreign file reports ErrBadMagic, no payload details.
	foreign := filepath.Join(dir, "foreign.ckpt")
	if err := os.WriteFile(foreign, []byte("this is not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = InspectCheckpoint(foreign)
	if err != nil {
		t.Fatalf("inspect foreign: %v", err)
	}
	if !errors.Is(info.Err, snapshot.ErrBadMagic) || info.PayloadOK {
		t.Fatalf("foreign file not flagged: %+v", info)
	}

	// A file of the previous format reports its version and leaves its
	// payload, which this build does not read, undecoded.
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:], 4)
	resealChecksum(raw)
	stale := filepath.Join(dir, "v4.ckpt")
	if err := os.WriteFile(stale, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = InspectCheckpoint(stale)
	if err != nil {
		t.Fatalf("inspect v4: %v", err)
	}
	var ve *snapshot.VersionError
	if info.Version != 4 || !errors.As(info.Err, &ve) || !info.ChecksumOK || info.PayloadOK {
		t.Fatalf("v4 file not reported by version: %+v", info)
	}
}

// TestCheckpointDirUnwritable proves a bad CheckpointDir fails at config time
// with a structured error, not silently at the first checkpoint write. A
// regular file blocks directory creation regardless of privileges (chmod
// tricks are invisible to root).
func TestCheckpointDirUnwritable(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := MASKConfig()
	cfg.CheckpointEvery = 1000
	cfg.CheckpointDir = filepath.Join(blocker, "nested")
	_, err := Prepare(cfg, []string{"3DS", "CONS"})
	if !errors.Is(err, ErrCheckpointDirUnwritable) {
		t.Fatalf("err = %v, want ErrCheckpointDirUnwritable", err)
	}

	// The same path as the dir itself is just as unwritable.
	cfg.CheckpointDir = blocker
	_, err = Prepare(cfg, []string{"3DS", "CONS"})
	if !errors.Is(err, ErrCheckpointDirUnwritable) {
		t.Fatalf("err = %v, want ErrCheckpointDirUnwritable", err)
	}
}
