package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes: just the fields the layer attribution needs
// (samples, their location chains, and each location's function names and
// files, inlined frames included). Decoding it here keeps the benchmark
// free of module dependencies and of a `go tool pprof` subprocess.

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified, e.g. repro/internal/sim.(*Simulator).RunWhile
	file string
}

// stackSample is one CPU-profile sample: its frames leaf first, and how
// many sampling ticks landed on it.
type stackSample struct {
	frames []frame
	count  int64
}

// protoBuf walks one protobuf message.
type protoBuf struct {
	b []byte
}

var errTruncated = errors.New("profile: truncated message")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped as empty
// varints; profile.proto has none the reader needs.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			err = errTruncated
			break
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's value(s): one when it
// arrived unpacked (data nil), all of them when packed.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type protoLine struct{ functionID uint64 }

type protoFunction struct{ name, file uint64 }

// parseProfile decodes a runtime/pprof CPU profile into stack samples. The
// count of a sample is its first value ("samples/count").
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]protoLine{}
		functions = map[uint64]protoFunction{}
		strings   []string
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarint(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarint(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var lines []protoLine
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line, innermost inlined call first
					var ln protoLine
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							ln.functionID = lv
						}
					}
					lines = append(lines, ln)
				}
			}
			locations[id] = lines
		case 5: // Function
			var id uint64
			var fn protoFunction
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
			}
			functions[id] = fn
		case 6: // string_table
			strings = append(strings, string(data))
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strings)) {
			return strings[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, ln := range locations[loc] {
				fn := functions[ln.functionID]
				st.frames = append(st.frames, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}
