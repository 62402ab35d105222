package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A dependency-free reader for the CPU profiles runtime/pprof writes: a
// gzip-compressed protobuf (github.com/google/pprof/proto/profile.proto).
// Only what the fold needs is decoded — samples, their leaf location, and the
// function that location's innermost line names.

var errProfile = errors.New("maskbench: malformed profile")

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload (fixed32/64 values are skipped; the profile schema the fold reads
// has none).
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// pbFields walks one message.
func pbFields(b []byte, visit func(f pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// profileFold is a CPU profile folded to self time by leaf function.
type profileFold struct {
	Total  int64            // all samples' value
	ByFunc map[string]int64 // leaf function name -> value; "" = unresolved
}

// foldProfile decodes a runtime/pprof CPU profile and attributes each
// sample's last value (cpu nanoseconds) to the function of its leaf frame.
func foldProfile(gz []byte) (*profileFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("maskbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("maskbench: profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string table index
		strs     []string
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample{location_id=1, value=2}
			var locs, vals []uint64
			if err := pbFields(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					locs, err = pbUints(locs, g)
				case 2:
					vals, err = pbUints(vals, g)
				}
				return err
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errProfile
			}
			s := sample{value: int64(vals[len(vals)-1])}
			if len(locs) > 0 {
				s.leaf = locs[0]
			}
			samples = append(samples, s)
		case 4: // Location{id=1, line=4{function_id=1}}
			var id, fn uint64
			seenLine := false
			if err := pbFields(f.data, func(g pbField) error {
				switch {
				case g.num == 1:
					id = g.val
				case g.num == 4 && !seenLine: // first line = innermost inlined frame
					seenLine = true
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fn = h.val
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function{id=1, name=2}
			var id, name uint64
			if err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fold := &profileFold{ByFunc: map[string]int64{}}
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		fold.Total += s.value
		fold.ByFunc[name] += s.value
	}
	return fold, nil
}

// packageOf returns the import path a Go symbol name belongs to:
// "masksim/internal/cache.(*Cache).Submit" -> "masksim/internal/cache". It is
// everything before the first dot that follows the last slash, ignoring
// slashes inside a generic instantiation's brackets.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// submitFunc is the core-to-L1D entry point whose flat share the retry storm
// inflates; it is reported on its own as cache.submit_cpu_share.
const submitFunc = "masksim/internal/cache.(*Cache).Submit"

// mallocGCFuncs and mallocGCTypes name the runtime's allocator and collector:
// function-name prefixes, and receiver types whose every method belongs.
var (
	mallocGCFuncs = []string{
		"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "memclr",
		"gc", "scan", "sweep", "mark", "grey", "bgsweep", "bgscavenge", "heapBits", "heapSetType",
		"typePointers", "findObject", "spanOf", "nextFree", "addb", "getMCache", "wbBuf", "wbZero", "wbMove",
		"bulkBarrier", "deductAssistCredit",
	}
	mallocGCTypes = []string{
		"mcache", "mcentral", "mheap", "mspan", "gcWork", "gcBits", "pageAlloc", "pallocData", "pallocBits",
		"scavengerState", "scavengeIndex", "gcControllerState", "gcCPULimiterState", "sweepLocked", "activeSweep",
		"fixalloc", "spanSet", "lfstack", "limiterEvent", "stackScanState", "mSpanStateBox",
	}
)

// isMallocGC reports whether a runtime function allocates or collects.
func isMallocGC(fn string) bool {
	name := strings.TrimPrefix(fn, "runtime.")
	if recv, ok := strings.CutPrefix(name, "(*"); ok {
		for _, t := range mallocGCTypes {
			if strings.HasPrefix(recv, t+")") {
				return true
			}
		}
		return false
	}
	for _, p := range mallocGCFuncs {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// jsonHTTPPackages is the serving edge: wire encoding, the HTTP stack, the
// network poller and the system calls under both (file writes of the result
// store land here too — a leaf frame cannot tell a socket from a file).
var jsonHTTPPackages = map[string]bool{
	"encoding/json": true, "encoding/base64": true, "encoding/hex": true,
	"net": true, "net/http": true, "net/textproto": true, "net/url": true,
	"net/http/internal": true, "net/http/internal/ascii": true, "net/http/httptrace": true,
	"internal/poll": true, "syscall": true, "internal/runtime/syscall": true,
	"reflect": true, "strconv": true, "unicode/utf8": true, "unicode": true,
	"bufio": true, "mime": true, "io": true, "os": true,
}

// layerOf maps a leaf function to one of profileLayers.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "masksim/sim":
		return "sim"
	case strings.HasPrefix(pkg, "masksim/internal/"):
		name := strings.TrimPrefix(pkg, "masksim/internal/")
		for _, l := range profileLayers {
			if l == name {
				return name
			}
		}
		return "other" // rng, metrics, streamio, faultinject
	case pkg == "internal/runtime/maps" || strings.HasPrefix(fn, "runtime.map") ||
		strings.HasPrefix(fn, "runtime.memhash") || strings.HasPrefix(fn, "runtime.aeshash") ||
		strings.HasPrefix(fn, "runtime.strhash") || strings.HasPrefix(fn, "runtime.nilinterhash"):
		return "runtime.map"
	case pkg == "runtime" && isMallocGC(fn):
		return "runtime.malloc_gc"
	case pkg == "" && fn != "": // assembly stubs (gcWriteBarrier, ...) carry no package
		return "runtime"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/bytealg" || pkg == "internal/cpu" || pkg == "internal/sync" ||
		pkg == "sync" || pkg == "sync/atomic" || pkg == "time":
		return "runtime"
	case jsonHTTPPackages[pkg]:
		return "json_http"
	}
	return "other"
}

// cpuShares turns a fold into the <layer>.cpu_share metrics. It fails when
// fewer than 80 % of the samples resolve to a named package: a fold that
// cannot name where the time went must not be mistaken for a profile.
func cpuShares(fold *profileFold) (map[string]float64, error) {
	total := fold.Total
	if total <= 0 {
		return nil, fmt.Errorf("maskbench: CPU profile holds no samples")
	}
	var named, submit int64
	byLayer := map[string]int64{}
	for fn, v := range fold.ByFunc {
		if packageOf(fn) != "" {
			named += v
		}
		byLayer[layerOf(fn)] += v
		if fn == submitFunc {
			submit += v
		}
	}
	if float64(named) < 0.8*float64(total) {
		return nil, fmt.Errorf("maskbench: only %.0f%% of profile samples resolve to a named package (need 80%%)",
			100*float64(named)/float64(total))
	}
	out := map[string]float64{"cache.submit_cpu_share": float64(submit) / float64(total)}
	for _, l := range profileLayers {
		out[shareName(l)] = float64(byLayer[l]) / float64(total)
	}
	return out, nil
}
