package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiledLayers are the packages a traced run attributes CPU to, each
// reported as <layer>.cpu_frac. Every other package's share is part of
// unattributed_frac on workloads whose layers sit behind one call.
var profiledLayers = []string{
	"invariant", "route", "wafer", "ctrl", "loadgen", "snapshot",
	"netsim", "topo", "engine", "runtime",
}

// cpuProfile collects a CPU profile of the traced window in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// shares stops the profile and returns each layer's flat and
// cumulative share of the sampled CPU time. Flat charges a sample to
// its innermost frame's layer, except that a standard-library frame
// (sort, strconv, ...) is charged to the nearest repository layer that
// called it; cumulative charges a sample to every layer with a frame
// anywhere on the stack.
func (p *cpuProfile) shares() (flat, cum map[string]float64, err error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	flat, cum = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		value := float64(s.value)
		total += value
		owner := ""
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				layer := layerOf(prof.funcNames[fn])
				if owner == "" && layer != "other" {
					owner = layer
				}
				if !seen[layer] {
					seen[layer] = true
					cum[layer] += value
				}
			}
		}
		if owner == "" {
			owner = "other"
		}
		flat[owner] += value
	}
	for k := range flat {
		flat[k] = ratio(flat[k], total)
	}
	for k := range cum {
		cum[k] = ratio(cum[k], total)
	}
	return flat, cum, nil
}

// setCPUShares copies the profiled layers' flat CPU shares into v and
// charges the rest of the profile to unattributed_frac.
func setCPUShares(v map[string]float64, flat map[string]float64) {
	covered := 0.0
	for _, l := range profiledLayers {
		v[l+".cpu_frac"] = flat[l]
		covered += flat[l]
	}
	v["unattributed_frac"] = 1 - covered
}

// layerOf maps a profiled function name to the repository layer whose
// package holds it: a lightpath/internal package by its last path
// element, the Go runtime as "runtime", anything else as "other".
func layerOf(fn string) string {
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "lightpath/internal/"); ok {
		return rest[strings.LastIndex(rest, "/")+1:]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]string   // function id -> name
}

// sample is one stack (location ids, leaf first) with its CPU value.
type sample struct {
	locs  []uint64
	value int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes.
// Only the fields needed for attribution are read: Profile.sample (2),
// .location (4), .function (5) and .string_table (6); Sample.location_id
// (1) and .value (2); Location.id (1) and .line (4); Line.function_id
// (1); Function.id (1) and .name (2).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var values []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcNames[id] = strs[idx]
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may arrive either
// as one varint (v, with b nil) or packed into a byte run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("pprof: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5: // fixed32
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
