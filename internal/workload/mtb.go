package workload

// The compact binary trace format (.mtb, docs/FORMATS.md): varint-encoded
// records with a per-warp section index in a footer. The decoder reads the
// sections in order from any io.Reader (including a gzip stream).
//
// Layout:
//
//	"MTB1"                            — 4-byte file magic
//	section*                          — one per warp, in warp order
//	  tag      uvarint == 0
//	  count    uvarint               — entries in this warp (>= 1)
//	  entry*
//	    head   uvarint == nAddrs<<1 | writeBit
//	    addr0  uvarint               — first address, absolute
//	    delta* svarint (zigzag)      — each further address as delta
//	    gap    uvarint               — compute gap after the access
//	footer
//	  tag      uvarint == 1
//	  warps    uvarint               — section count
//	  len*     uvarint               — per-section byte length, tag included
//	trailer
//	  flen     uint32 LE             — footer length, tag through last len
//	  "MTBI"                         — 4-byte trailer magic
//
// The decoder verifies the footer against what it just decoded: section
// count and every section length must match, so a truncated or spliced file
// is rejected.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

var (
	mtbMagic        = []byte("MTB1")
	mtbTrailerMagic = []byte("MTBI")
)

const (
	mtbTagSection = 0
	mtbTagFooter  = 1

	// mtbMaxAddrs caps one entry's address count and mtbMaxEntries one
	// warp's entry count: far above anything a real trace produces, low
	// enough that a corrupt varint is rejected as implausible instead of
	// looping over garbage.
	mtbMaxAddrs   = 1 << 24
	mtbMaxEntries = 1 << 32

	// mtbPreallocCap bounds slice preallocation from decoded counts, so an
	// oversized count in a corrupt file never allocates ahead of the actual
	// data that backs it.
	mtbPreallocCap = 1 << 12
)

// EncodeMTB writes the trace in the binary .mtb format. Sections are staged
// through one reusable buffer (the footer needs their byte lengths), so peak
// memory is one warp's encoding, not the file's.
func (ts *TraceSet) EncodeMTB(w io.Writer) error {
	if len(ts.Warps) == 0 {
		return fmt.Errorf("mtb %s: no warps", ts.Name)
	}
	bw := bufio.NewWriter(w)
	bw.Write(mtbMagic)
	var (
		scratch bytes.Buffer
		varint  [binary.MaxVarintLen64]byte
		lengths = make([]uint64, 0, len(ts.Warps))
	)
	putUvarint := func(dst *bytes.Buffer, v uint64) {
		dst.Write(varint[:binary.PutUvarint(varint[:], v)])
	}
	for i, warp := range ts.Warps {
		if len(warp) == 0 {
			return fmt.Errorf("mtb %s: warp %d has no accesses", ts.Name, i)
		}
		scratch.Reset()
		putUvarint(&scratch, mtbTagSection)
		putUvarint(&scratch, uint64(len(warp)))
		for _, e := range warp {
			if len(e.Addrs) == 0 {
				return fmt.Errorf("mtb %s: warp %d has an access with no address", ts.Name, i)
			}
			head := uint64(len(e.Addrs)) << 1
			if e.Write {
				head |= 1
			}
			putUvarint(&scratch, head)
			putUvarint(&scratch, e.Addrs[0])
			prev := e.Addrs[0]
			for _, a := range e.Addrs[1:] {
				scratch.Write(varint[:binary.PutVarint(varint[:], int64(a-prev))])
				prev = a
			}
			putUvarint(&scratch, uint64(e.ComputeGap))
		}
		lengths = append(lengths, uint64(scratch.Len()))
		if _, err := bw.Write(scratch.Bytes()); err != nil {
			return fmt.Errorf("mtb %s: %w", ts.Name, err)
		}
	}
	scratch.Reset()
	putUvarint(&scratch, mtbTagFooter)
	putUvarint(&scratch, uint64(len(ts.Warps)))
	for _, l := range lengths {
		putUvarint(&scratch, l)
	}
	flen := uint32(scratch.Len())
	bw.Write(scratch.Bytes())
	binary.Write(bw, binary.LittleEndian, flen)
	bw.Write(mtbTrailerMagic)
	return bw.Flush()
}

// mtbReader counts consumed bytes so the sequential decoder can verify the
// footer's section lengths.
type mtbReader struct {
	r *bufio.Reader
	n int64
}

func (m *mtbReader) ReadByte() (byte, error) {
	b, err := m.r.ReadByte()
	if err == nil {
		m.n++
	}
	return b, err
}

func (m *mtbReader) readFull(p []byte) error {
	n, err := io.ReadFull(m.r, p)
	m.n += int64(n)
	return err
}

func (m *mtbReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(m)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return v, err
}

func (m *mtbReader) varint() (int64, error) {
	v, err := binary.ReadVarint(m)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return v, err
}

// DecodeMTB decodes a binary trace from r sequentially. Corrupt input —
// truncated sections, implausible counts, a footer disagreeing with the
// decoded sections, trailing garbage — is rejected with a structured error;
// allocation is always bounded by the bytes actually present.
func DecodeMTB(name string, r io.Reader) (*TraceSet, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	m := &mtbReader{r: br}
	fail := func(format string, args ...any) (*TraceSet, error) {
		return nil, fmt.Errorf("mtb %s: "+format, append([]any{name}, args...)...)
	}
	magic := make([]byte, len(mtbMagic))
	if err := m.readFull(magic); err != nil || !bytes.Equal(magic, mtbMagic) {
		return fail("bad magic (not an .mtb file)")
	}
	ts := &TraceSet{Name: name}
	var lengths []uint64
	for {
		start := m.n
		tag, err := m.uvarint()
		if err != nil {
			return fail("section tag: %v", err)
		}
		if tag == mtbTagFooter {
			warps, err := m.uvarint()
			if err != nil {
				return fail("footer warp count: %v", err)
			}
			if warps != uint64(len(ts.Warps)) {
				return fail("footer says %d warps, file has %d sections", warps, len(ts.Warps))
			}
			for i := range ts.Warps {
				l, err := m.uvarint()
				if err != nil {
					return fail("footer length %d: %v", i, err)
				}
				if l != lengths[i] {
					return fail("footer says section %d is %d bytes, decoded %d", i, l, lengths[i])
				}
			}
			var trailer [8]byte
			if err := m.readFull(trailer[:]); err != nil {
				return fail("trailer: %v", err)
			}
			flen := binary.LittleEndian.Uint32(trailer[:4])
			if int64(flen) != m.n-8-start {
				return fail("trailer says footer is %d bytes, decoded %d", flen, m.n-8-start)
			}
			if !bytes.Equal(trailer[4:], mtbTrailerMagic) {
				return fail("bad trailer magic %q", trailer[4:])
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return fail("trailing garbage after trailer")
			}
			break
		}
		if tag != mtbTagSection {
			return fail("unknown section tag %d", tag)
		}
		warp, err := decodeMTBSection(m)
		if err != nil {
			return fail("warp %d: %v", len(ts.Warps), err)
		}
		ts.Warps = append(ts.Warps, warp)
		lengths = append(lengths, uint64(m.n-start))
	}
	if len(ts.Warps) == 0 {
		return fail("no warps")
	}
	ts.Digest = digest(ts.Warps)
	return ts, nil
}

// decodeMTBSection decodes one warp section body (the tag is already
// consumed).
func decodeMTBSection(m *mtbReader) ([]TraceEntry, error) {
	count, err := m.uvarint()
	if err != nil {
		return nil, fmt.Errorf("entry count: %v", err)
	}
	if count == 0 {
		return nil, fmt.Errorf("warp has no accesses")
	}
	if count > mtbMaxEntries {
		return nil, fmt.Errorf("implausible entry count %d", count)
	}
	warp := make([]TraceEntry, 0, min64(count, mtbPreallocCap))
	for i := uint64(0); i < count; i++ {
		head, err := m.uvarint()
		if err != nil {
			return nil, fmt.Errorf("entry %d head: %v", i, err)
		}
		nAddrs := head >> 1
		if nAddrs == 0 {
			return nil, fmt.Errorf("entry %d has no address", i)
		}
		if nAddrs > mtbMaxAddrs {
			return nil, fmt.Errorf("entry %d: implausible address count %d", i, nAddrs)
		}
		e := TraceEntry{Write: head&1 != 0}
		e.Addrs = make([]uint64, 0, min64(nAddrs, mtbPreallocCap))
		addr, err := m.uvarint()
		if err != nil {
			return nil, fmt.Errorf("entry %d addr: %v", i, err)
		}
		e.Addrs = append(e.Addrs, addr)
		for a := uint64(1); a < nAddrs; a++ {
			d, err := m.varint()
			if err != nil {
				return nil, fmt.Errorf("entry %d addr %d: %v", i, a, err)
			}
			addr += uint64(d)
			e.Addrs = append(e.Addrs, addr)
		}
		gap, err := m.uvarint()
		if err != nil {
			return nil, fmt.Errorf("entry %d gap: %v", i, err)
		}
		if gap > 1<<31 {
			return nil, fmt.Errorf("entry %d: implausible compute gap %d", i, gap)
		}
		e.ComputeGap = int(gap)
		warp = append(warp, e)
	}
	return warp, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
