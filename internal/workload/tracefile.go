package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"masksim/internal/streamio"
)

// TraceEntry is one warp-level memory instruction in an external trace.
type TraceEntry struct {
	// Addrs holds one or more virtual byte addresses (distinct pages become
	// distinct translations, like MemInst).
	Addrs []uint64
	Write bool
	// ComputeGap is the number of compute instructions issued after this
	// access before the next one.
	ComputeGap int
}

// TraceSet is a parsed external workload: per-warp instruction traces that
// can drive the simulator in place of a synthetic Profile. Warps replay
// their traces cyclically, matching the paper's methodology of relaunching
// an application that finishes early to keep contention alive (§6).
type TraceSet struct {
	// Name labels the workload in results.
	Name string
	// Warps holds one trace per warp; warp w uses Warps[w % len(Warps)].
	Warps [][]TraceEntry
	// Digest identifies Warps' content: the loaders compute it once over
	// the decoded entries, so a text trace and its .mtb conversion share it
	// and two same-named traces of different content do not. Checkpoint
	// fingerprints write it beside Name.
	Digest string
}

// digest hashes the decoded entries of warps: per warp its entry count, per
// entry its write flag, compute gap and addresses.
func digest(warps [][]TraceEntry) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, w := range warps {
		put(uint64(len(w)))
		for _, e := range w {
			var write uint64
			if e.Write {
				write = 1
			}
			put(write<<32 | uint64(len(e.Addrs)))
			put(uint64(e.ComputeGap))
			for _, a := range e.Addrs {
				put(a)
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ParseTrace reads the textual trace format (docs/FORMATS.md):
//
//	# comment
//	warp <n>                 — start of warp n's trace (required before entries)
//	r <hexaddr> [hexaddr...] — read touching the given addresses
//	w <hexaddr> [hexaddr...] — write
//	c <n>                    — compute gap after the previous access
//
// Addresses are hexadecimal with or without 0x. Warp headers must number
// their traces sequentially from 0 in file order; a mismatch means the trace
// was truncated, reordered, or concatenated wrongly, and is rejected rather
// than silently renumbered. The format is deliberately trivial so traces can
// be produced by any profiler or generator.
//
// The parser is a token-level streaming pipeline: input is consumed through
// a buffered, transparently gzip-decoding reader, one whitespace-separated
// token at a time, so a pathological multi-megabyte access line costs one
// token buffer, never a line buffer, and there is no line-length limit.
func ParseTrace(name string, r io.Reader) (*TraceSet, error) {
	br, err := streamio.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	p := &traceParser{name: name, src: br, line: 1}
	ts := &TraceSet{Name: name}
	var cur []TraceEntry
	flush := func() {
		if cur != nil {
			ts.Warps = append(ts.Warps, cur)
			cur = nil
		}
	}
	for {
		tok, ok, err := p.word()
		if err != nil {
			return nil, p.errf(p.line, "%v", err)
		}
		if !ok {
			break
		}
		ln := p.line
		switch {
		case bytes.Equal(tok, wordWarp):
			idxTok, ok, err := p.lineWord()
			if err != nil {
				return nil, p.errf(ln, "%v", err)
			}
			if !ok {
				return nil, p.errf(ln, "'warp' takes exactly one index")
			}
			idx, perr := parseDec(idxTok)
			if perr != nil || idx < 0 {
				return nil, p.errf(ln, "bad warp index %q", idxTok)
			}
			if extra, ok, err := p.lineWord(); err != nil {
				return nil, p.errf(ln, "%v", err)
			} else if ok {
				return nil, p.errf(ln, "'warp' takes exactly one index, got extra field %q", extra)
			}
			flush()
			if idx != len(ts.Warps) {
				return nil, p.errf(ln, "warp index %d out of order (expected %d)", idx, len(ts.Warps))
			}
			cur = []TraceEntry{}
		case len(tok) == 1 && (tok[0] == 'r' || tok[0] == 'w'):
			if cur == nil {
				return nil, p.errf(ln, "access before any 'warp' header")
			}
			e := TraceEntry{Write: tok[0] == 'w'}
			for {
				a, ok, err := p.lineWord()
				if err != nil {
					return nil, p.errf(ln, "%v", err)
				}
				if !ok {
					break
				}
				addr, perr := parseHex(a)
				if perr != nil {
					return nil, p.errf(ln, "bad address %q: %v", a, perr)
				}
				e.Addrs = append(e.Addrs, addr)
			}
			if len(e.Addrs) == 0 {
				return nil, p.errf(ln, "access with no address")
			}
			cur = append(cur, e)
		case len(tok) == 1 && tok[0] == 'c':
			if len(cur) == 0 {
				return nil, p.errf(ln, "compute gap before any access")
			}
			gapTok, ok, err := p.lineWord()
			if err != nil {
				return nil, p.errf(ln, "%v", err)
			}
			if !ok {
				return nil, p.errf(ln, "malformed compute gap")
			}
			n, perr := parseDec(gapTok)
			if perr != nil || n < 0 {
				return nil, p.errf(ln, "bad compute gap %q", gapTok)
			}
			if extra, ok, err := p.lineWord(); err != nil {
				return nil, p.errf(ln, "%v", err)
			} else if ok {
				return nil, p.errf(ln, "malformed compute gap: extra field %q", extra)
			}
			cur[len(cur)-1].ComputeGap = n
		default:
			return nil, p.errf(ln, "unknown directive %q", tok)
		}
	}
	flush()
	if len(ts.Warps) == 0 {
		return nil, fmt.Errorf("trace %s: no warps", name)
	}
	for i, w := range ts.Warps {
		if len(w) == 0 {
			return nil, fmt.Errorf("trace %s: warp %d has no accesses", name, i)
		}
	}
	ts.Digest = digest(ts.Warps)
	return ts, nil
}

var wordWarp = []byte("warp")

// traceParser tokenizes the text format without materializing lines: tokens
// are sliced straight out of a refill buffer (copied into one reusable
// scratch only when they straddle a refill boundary), comments are skipped
// with an indexed newline scan, and the line counter advances as newlines
// are consumed. Returned token slices are valid until the next token read.
type traceParser struct {
	name  string
	src   io.Reader
	buf   []byte
	pos   int // next unread byte in buf
	end   int // valid bytes in buf
	line  int
	tok   []byte // scratch for boundary-straddling tokens
	onLin bool   // a word has been read on the current line (disables comments)
}

const traceParserBuf = 128 << 10

// errf prefixes a parse error with the trace name and line.
func (p *traceParser) errf(ln int, format string, args ...any) error {
	return fmt.Errorf("trace %s:%d: "+format, append([]any{p.name, ln}, args...)...)
}

// fill refreshes the buffer; io.EOF means no bytes remain.
func (p *traceParser) fill() error {
	if p.buf == nil {
		p.buf = make([]byte, traceParserBuf)
	}
	p.pos, p.end = 0, 0
	for {
		n, err := p.src.Read(p.buf)
		if n > 0 {
			p.end = n
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// word returns the next token, skipping blank lines and comments; ok is
// false at end of input.
func (p *traceParser) word() ([]byte, bool, error) {
	for {
		tok, ok, err := p.lineWord()
		if err != nil || ok {
			return tok, ok, err
		}
		// lineWord consumed a newline, or the input is exhausted.
		if p.pos == p.end {
			if err := p.fill(); err != nil {
				if err == io.EOF {
					return nil, false, nil
				}
				return nil, false, err
			}
		}
	}
}

// lineWord returns the next token on the current line; ok is false when the
// line ended (the newline is consumed) or input ended. A '#' opening a line
// starts a comment through end of line.
func (p *traceParser) lineWord() ([]byte, bool, error) {
	// Skip horizontal whitespace; handle newline and comment openers.
	for {
		if p.pos == p.end {
			if err := p.fill(); err != nil {
				if err == io.EOF {
					return nil, false, nil
				}
				return nil, false, err
			}
		}
		c := p.buf[p.pos]
		if c == ' ' || c == '\t' || c == '\r' {
			p.pos++
			continue
		}
		if c == '\n' {
			p.pos++
			p.line++
			p.onLin = false
			return nil, false, nil
		}
		if c == '#' && !p.onLin {
			// Comment: discard through end of line.
			for {
				if i := bytes.IndexByte(p.buf[p.pos:p.end], '\n'); i >= 0 {
					p.pos += i + 1
					p.line++
					return nil, false, nil
				}
				p.pos = p.end
				if err := p.fill(); err != nil {
					if err == io.EOF {
						return nil, false, nil
					}
					return nil, false, err
				}
			}
		}
		break
	}
	// Scan the token; the common case is one contiguous slice of buf.
	p.tok = p.tok[:0]
	start := p.pos
	for {
		i := start
		for i < p.end {
			c := p.buf[i]
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
				break
			}
			i++
		}
		if i < p.end {
			p.pos = i
			p.onLin = true
			if len(p.tok) == 0 {
				return p.buf[start:i], true, nil
			}
			p.tok = append(p.tok, p.buf[start:i]...)
			return p.tok, true, nil
		}
		// The token continues past the buffer: save and refill.
		p.tok = append(p.tok, p.buf[start:p.end]...)
		p.pos = p.end
		if err := p.fill(); err != nil {
			if err == io.EOF {
				p.onLin = true
				return p.tok, true, nil
			}
			return nil, false, err
		}
		start = 0
	}
}

// parseHex parses a hexadecimal address with an optional 0x prefix straight
// from token bytes (no string conversion, no allocation).
func parseHex(b []byte) (uint64, error) {
	if len(b) >= 2 && b[0] == '0' && b[1] == 'x' {
		b = b[2:]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("empty hex number")
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("invalid hex digit %q", c)
		}
		if v > math.MaxUint64>>4 {
			return 0, fmt.Errorf("value overflows 64 bits")
		}
		v = v<<4 | d
	}
	return v, nil
}

// parseDec parses a decimal integer (optional sign) from token bytes.
func parseDec(b []byte) (int, error) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid digit %q", c)
		}
		v = v*10 + int64(c-'0')
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("value out of range")
		}
	}
	if neg {
		v = -v
	}
	return int(v), nil
}

// WriteText writes the trace in the canonical text format: one "warp" header
// per warp, one access per line with 0x-prefixed lowercase-hex addresses, a
// "c" line after each entry with a positive compute gap. ParseTrace of the
// output reproduces the TraceSet exactly (masktrace convert round-trips
// through this).
func (ts *TraceSet) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, warp := range ts.Warps {
		fmt.Fprintf(bw, "warp %d\n", i)
		for _, e := range warp {
			op := byte('r')
			if e.Write {
				op = 'w'
			}
			bw.WriteByte(op)
			for _, a := range e.Addrs {
				fmt.Fprintf(bw, " 0x%x", a)
			}
			bw.WriteByte('\n')
			if e.ComputeGap > 0 {
				fmt.Fprintf(bw, "c %d\n", e.ComputeGap)
			}
		}
	}
	return bw.Flush()
}

// LoadTrace reads a trace in either supported format — textual (optionally
// gzip-compressed) or binary .mtb (ditto) — sniffing the format from the
// stream's leading bytes.
func LoadTrace(name string, r io.Reader) (*TraceSet, error) {
	br, err := streamio.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	magic, _ := br.Peek(len(mtbMagic))
	if bytes.Equal(magic, mtbMagic) {
		return DecodeMTB(name, br)
	}
	return ParseTrace(name, br)
}

// LoadTraceFile loads path via LoadTrace, naming the workload TraceName(path)
// so results are identical however the same trace is stored (text, .mtb,
// either gzipped).
func LoadTraceFile(path string) (*TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTrace(TraceName(path), f)
}

// TraceName derives a workload label from a trace file path: the base name
// with the compression suffix and one trace-format suffix stripped, so
// "traces/mum.trace", "mum.trace.gz" and "mum.mtb" all label the workload
// "mum".
func TraceName(path string) string {
	name := filepath.Base(strings.TrimSpace(path))
	name = strings.TrimSuffix(name, ".gz")
	for _, ext := range []string{".mtb", ".trace", ".txt"} {
		if strings.HasSuffix(name, ext) {
			name = strings.TrimSuffix(name, ext)
			break
		}
	}
	return name
}

// Pages enumerates every distinct page address touched by the trace, for
// page-table pre-population.
func (ts *TraceSet) Pages(pageSize int) []uint64 {
	shift := pageShiftFor(pageSize)
	seen := map[uint64]bool{}
	var out []uint64
	for _, warp := range ts.Warps {
		for _, e := range warp {
			for _, a := range e.Addrs {
				page := (a >> shift) << shift
				if !seen[page] {
					seen[page] = true
					out = append(out, page)
				}
			}
		}
	}
	return out
}

// NewStream builds a replaying Stream for one warp of the trace. The
// returned Stream satisfies the same contract as Profile.NewStream; group
// sync does not apply to traces (the trace itself encodes inter-warp
// timing).
func (ts *TraceSet) NewStream(warpIndex, pageSize, lineSize int) *Stream {
	shift := pageShiftFor(pageSize)
	return &Stream{
		pageShift: shift,
		lineSize:  uint64(lineSize),
		replay:    ts.Warps[warpIndex%len(ts.Warps)],
	}
}
