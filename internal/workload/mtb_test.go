package workload

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// genTrace builds a deterministic pseudo-random trace for round-trip tests.
func genTrace(t testing.TB, warps, entries int) *TraceSet {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ts := &TraceSet{Name: "gen"}
	for w := 0; w < warps; w++ {
		var warp []TraceEntry
		for e := 0; e < entries; e++ {
			n := 1 + rng.Intn(8)
			entry := TraceEntry{Write: rng.Intn(4) == 0}
			base := uint64(rng.Intn(1 << 30))
			for a := 0; a < n; a++ {
				// Mix of ascending and jumping addresses exercises both signs
				// of the delta encoding.
				base += uint64(rng.Intn(256)) - 64
				entry.Addrs = append(entry.Addrs, base)
			}
			if rng.Intn(3) == 0 {
				entry.ComputeGap = rng.Intn(1000)
			}
			warp = append(warp, entry)
		}
		ts.Warps = append(ts.Warps, warp)
	}
	return ts
}

func TestMTBRoundTrip(t *testing.T) {
	ts := genTrace(t, 7, 200)
	var bin bytes.Buffer
	if err := ts.EncodeMTB(&bin); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMTB("gen", bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts.Warps, back.Warps) {
		t.Fatal("binary round trip altered the trace")
	}
}

func TestTextBinaryTextRoundTrip(t *testing.T) {
	// text -> TraceSet -> .mtb -> TraceSet -> text must reproduce the
	// canonical text exactly.
	ts := genTrace(t, 4, 100)
	var text1 bytes.Buffer
	if err := ts.WriteText(&text1); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace("gen", strings.NewReader(text1.String()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := parsed.EncodeMTB(&bin); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeMTB("gen", bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var text2 bytes.Buffer
	if err := decoded.WriteText(&text2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
		t.Fatal("text -> binary -> text round trip altered the canonical text")
	}
	if !reflect.DeepEqual(parsed.Warps, decoded.Warps) {
		t.Fatal("parsed and decoded traces differ")
	}
}

func TestLoadTraceSniffsAllFormats(t *testing.T) {
	ts := genTrace(t, 3, 50)
	dir := t.TempDir()

	var text bytes.Buffer
	if err := ts.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := ts.EncodeMTB(&bin); err != nil {
		t.Fatal(err)
	}
	gz := func(raw []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(raw)
		zw.Close()
		return buf.Bytes()
	}
	files := map[string][]byte{
		"gen.trace":    text.Bytes(),
		"gen.trace.gz": gz(text.Bytes()),
		"gen.mtb":      bin.Bytes(),
		"gen.mtb.gz":   gz(bin.Bytes()),
	}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name != "gen" {
			t.Fatalf("%s: loaded name %q, want gen", name, got.Name)
		}
		if !reflect.DeepEqual(got.Warps, ts.Warps) {
			t.Fatalf("%s: loaded trace differs", name)
		}
	}
}

func TestDecodeMTBRejectsCorruption(t *testing.T) {
	ts := genTrace(t, 3, 20)
	var bin bytes.Buffer
	if err := ts.EncodeMTB(&bin); err != nil {
		t.Fatal(err)
	}
	good := bin.Bytes()

	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       []byte("NOPE"),
		"magic only":      []byte("MTB1"),
		"truncated half":  good[:len(good)/2],
		"truncated tail":  good[:len(good)-3],
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"flipped trailer": append(append([]byte{}, good[:len(good)-1]...), 'X'),
	}
	// Oversized entry count: magic + section tag + huge varint.
	huge := []byte("MTB1")
	huge = append(huge, 0x00)                                                 // section tag
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // ~2^62 entries
	cases["oversized count"] = huge
	for name, data := range cases {
		if _, err := DecodeMTB("bad", bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestTraceName(t *testing.T) {
	cases := map[string]string{
		"mum.trace":          "mum",
		"traces/mum.trace":   "mum",
		"/a/b/mum.trace.gz":  "mum",
		"mum.mtb":            "mum",
		"mum.mtb.gz":         "mum",
		"mum.txt":            "mum",
		"mum":                "mum",
		" spaced.trace ":     "spaced",
		"odd.name.trace":     "odd.name",
		"double.trace.trace": "double.trace",
	}
	for in, want := range cases {
		if got := TraceName(in); got != want {
			t.Errorf("TraceName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseTraceGzipTransparent(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(sampleTrace))
	zw.Close()
	ts, err := ParseTrace("demo", &buf)
	if err != nil {
		t.Fatalf("gzip input rejected: %v", err)
	}
	if len(ts.Warps) != 2 {
		t.Fatalf("%d warps, want 2", len(ts.Warps))
	}
}
