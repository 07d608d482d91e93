package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is folded by package here rather than with pprof, which
// the standard library does not include: foldProfile decodes just the parts
// of the gzipped profile.proto it needs (samples, locations, functions and
// the string table) and charges every sample to the package of its
// innermost frame, inlined frames included.

// pbField is one decoded protobuf field: a varint, or a length-delimited
// payload.
type pbField struct {
	num   int
	v     uint64
	bytes []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.v, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(b)-n) < l {
				return nil, errors.New("profile: short field")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// foldProfile returns CPU samples per package of the innermost frame, and
// the total sample count.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, 0, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct{ loc, count uint64 }
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, 0, err
			}
			// The first location is the innermost frame and the first
			// value the sample count; both may come packed or not.
			var s sample
			var locs, vals []uint64
			for _, sf := range fs {
				v, err := pbUints(sf)
				if err != nil {
					return nil, 0, err
				}
				switch sf.num {
				case 1:
					locs = append(locs, v...)
				case 2:
					vals = append(vals, v...)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.loc, s.count = locs[0], vals[0]
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, 0, err
			}
			var id, fn uint64
			seen := false
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4:
					if seen {
						continue
					}
					lines, err := pbFields(lf.bytes)
					if err != nil {
						return nil, 0, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fn, seen = l.v, true
						}
					}
				}
			}
			leafFunc[id] = fn
		case 5: // Function
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, 0, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if si := funcName[leafFunc[s.loc]]; si < uint64(len(strs)) {
			name = strs[si]
		}
		out[packageOf(name)] += int64(s.count)
		total += int64(s.count)
	}
	return out, total, nil
}

// packageOf names the layer a function belongs to: the last element of its
// package path, with the runtime's internal packages folded into runtime.
func packageOf(fn string) string {
	path := fn
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	return path[strings.LastIndex(path, "/")+1:]
}
