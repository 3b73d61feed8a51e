package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the layer attribution
// needs: each sample's stack as function names, leaf first, with inlined
// frames expanded, and the CPU nanoseconds the sample stands for.
type cpuProfile struct {
	stacks [][]string
	ns     []int64
}

// parseCPUProfile decodes a (gzipped) profile.proto as written by
// runtime/pprof. Only the fields below are read; everything else is
// skipped by wire type.
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table, 1 sample_type
//	Sample:   1 location_id (packed or not), 2 value
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)
//	ValueType: 1 type (string index), 2 unit (string index)
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> string index
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indexes
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	// The CPU time column is the one whose unit is nanoseconds.
	col := -1
	for i, vt := range sampleTypes {
		if u, err := str(vt[1]); err == nil && u == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no nanoseconds sample type (not a CPU profile)")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample has too few values")
		}
		var stack []string
		for _, loc := range s.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, fid := range fns {
				idx, ok := funcName[fid]
				if !ok {
					return nil, fmt.Errorf("profile: location references unknown function %d", fid)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				stack = append(stack, name)
			}
		}
		p.stacks = append(p.stacks, stack)
		p.ns = append(p.ns, s.values[col])
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field in either encoding: one
// value per field (wire type 0) or packed into a byte string (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers are the names CPU time is charged to: the simulator's modules,
// the Go runtime, the benchmark itself, and other for the small helper
// packages. Order is the print order.
var layers = []string{
	"desim", "netsim", "gis", "es", "ds", "ls", "site", "storage", "catalog",
	"topology", "workload", "metrics", "core", "experiments", "runtime", "bench", "other",
}

// layerByPkg maps a chicsim/internal/ package path suffix to its layer;
// packages absent from it are charged to other.
var layerByPkg = map[string]string{
	"desim": "desim", "netsim": "netsim", "gis": "gis",
	"scheduler/es": "es", "scheduler/ds": "ds", "scheduler/ls": "ls",
	"site": "site", "storage": "storage", "catalog": "catalog",
	"topology": "topology", "workload": "workload",
	"metrics": "metrics", "metrics/stream": "metrics",
	"core": "core", "experiments": "experiments",
}

// frameLayer returns the layer a function belongs to, or "" for frames
// that are charged to their caller (the standard library and runtime).
func frameLayer(fn string) string {
	// A test binary compiles this package under its import path.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "chicsim/cmd/gridbench.") {
		return "bench"
	}
	const prefix = "chicsim/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	// The package path ends at the first dot after its last slash; type
	// parameters, which may hold slashes of their own, come later.
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if l, ok := layerByPkg[pkg]; ok {
		return l
	}
	return "other"
}

// stackLayer charges a stack (leaf first) to the innermost frame that
// belongs to a layer; a stack with no such frame is the runtime's own
// work (GC workers, the scheduler).
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// layerNanos sums CPU nanoseconds per layer.
func (p *cpuProfile) layerNanos() map[string]int64 {
	out := make(map[string]int64, len(layers))
	for i, st := range p.stacks {
		out[stackLayer(st)] += p.ns[i]
	}
	return out
}
