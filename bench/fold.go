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

// A CPU profile is folded into layers by the package of each sample's leaf
// frame. Frames in helper packages (the runtime, reflect, sync, strconv, …)
// are charged to the first non-helper caller, so a memmove or a map lookup
// counts toward the layer that asked for it. Two runtime activities are
// layers of their own: garbage collection, and goroutine hand-offs (channel
// operations, park/ready and the scheduler loop), which is where the sim
// kernel's direct-handoff scheduling spends its time.

// pkgLayers maps package paths onto layers; the first matching prefix wins.
var pkgLayers = []struct{ prefix, layer string }{
	{"repro/internal/sim", "sim"},
	{"repro/internal/mpi", "mpi"},
	{"repro/internal/cluster", "mpi"},
	{"repro/internal/core", "core"},
	{"repro/internal/ckpt", "core"},
	{"repro/internal/image", "core"},
	{"repro/internal/mlog", "mlog"},
	{"repro/internal/trace", "trace"},
	{"repro/internal/group", "group"},
	{"repro/internal/failure", "failure"},
	{"repro/internal/pattern", "failure"},
	{"repro/internal/workload", "app"},
	{"repro/gb/gbd", "gbd"},
	{"repro/gb", "harness"},
	{"repro/internal", "harness"}, // harness, runner, scenario, metrics, stats
	{"net", "nethttp"},
	{"encoding/json", "json"},
	{"crypto/sha256", "sha256"},
	{"crypto/internal/fips140/sha256", "sha256"},
}

// helperPkgs are charged to their caller.
var helperPkgs = map[string]bool{
	"runtime": true, "reflect": true, "sync": true, "sync/atomic": true,
	"syscall": true, "strconv": true, "math": true, "math/bits": true,
	"math/rand": true, "math/rand/v2": true, "sort": true, "slices": true,
	"maps": true, "bytes": true, "strings": true, "unicode": true,
	"unicode/utf8": true, "unicode/utf16": true, "errors": true, "fmt": true,
	"io": true, "bufio": true, "os": true, "time": true, "context": true,
	"container/heap": true, "iter": true, "encoding/binary": true,
	"hash": true, "hash/maphash": true, "type:": true,
}

// gcFrames and schedFrames are runtime function-name prefixes.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*mheap).reclaim", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.scanframe", "runtime.greyobject", "runtime.wbBufFlush",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.mcall", "runtime.goexit0",
	"runtime.gosched", "runtime.goschedImpl", "runtime.newproc",
	"runtime.execute", "runtime.runqgrab", "runtime.runqsteal",
	"runtime.stealWork", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futexsleep", "runtime.futexwakeup", "runtime.netpoll",
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.semacquire", "runtime.semrelease", "runtime.sysmon",
	"runtime.handoffp",
}

// layerOf attributes one sample, its stack given leaf first, to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if !helperPkgs[pkg] && !strings.HasPrefix(pkg, "internal/") && !strings.HasPrefix(pkg, "vendor/") {
			return layerOfPkg(pkg)
		}
		switch {
		case hasAnyPrefix(fn, gcFrames):
			return "gc"
		case hasAnyPrefix(fn, schedFrames):
			return "sched"
		}
	}
	return "other"
}

func layerOfPkg(pkg string) string {
	for _, m := range pkgLayers {
		if pkg == m.prefix || strings.HasPrefix(pkg, m.prefix+"/") {
			return m.layer
		}
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the package path of a symbol name as pprof records it,
// e.g. "repro/internal/sim" for "repro/internal/sim.(*Kernel).Run".
func pkgOf(fn string) string {
	if strings.HasPrefix(fn, "type:") { // compiler-generated equality and hashing
		return "type:"
	}
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile reads a gzipped pprof CPU profile and returns each layer's
// share of the samples. Every layer in layers is present.
func foldProfile(r io.Reader) (map[string]float64, error) {
	samples, err := parseProfile(r)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, nil
}

type stackSample struct {
	stack []string // function names, leaf first
	count int64
}

var errProfile = errors.New("malformed pprof profile")

// parseProfile decodes the parts of the profile.proto message a fold
// needs: samples, locations, functions and the string table.
func parseProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		raws    []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locFunc = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(data, func(num, typ int, v uint64, d []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := fields(d, func(num, typ int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = uints(s.locs, typ, v, d)
				case 2:
					vals, err = uints(vals, typ, v, d)
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errProfile
			}
			s.count = int64(vals[0])
			raws = append(raws, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(d, func(num, typ int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(d, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fns
		case 5: // Function
			var id, name uint64
			err := fields(d, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(d))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(raws))
	for _, s := range raws {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFunc[loc] {
				name, ok := funcs[fid]
				if !ok || name >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: %w: dangling function %d", errProfile, fid)
				}
				stack = append(stack, strs[name])
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}

// fields calls fn for each field of the protobuf message b: v holds varint
// and fixed-width values, d the bytes of length-delimited ones.
func fields(b []byte, fn func(num, typ int, v uint64, d []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var d []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			d, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(num, typ, v, d); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, typ int, v uint64, d []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for r := bytes.NewReader(d); r.Len() > 0; {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, errProfile
		}
		dst = append(dst, x)
	}
	return dst, nil
}
