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

// cpuProfile runs fn under the runtime CPU profiler and returns the
// samples, each as its stack of function names, leaf first, weighted by
// CPU nanoseconds.
func cpuProfile(fn func() error) (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

type sample struct {
	stack  []string
	weight int64
}

type profile struct{ samples []sample }

// parseProfile decodes the gzipped profile.proto the runtime writes,
// keeping only what attribution needs: sample stacks and their last value.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			var vals []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					vals = appendVarints(vals, w, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, sample{stack: stack, weight: s.weight})
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < size {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(size)], b[n+int(size):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// funcPackage returns the import path of a profiled function name such as
// "symfail/internal/collect.(*Server).handleChunk".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// gcFuncs mark a sample as garbage-collector work wherever they appear on
// the stack: background marking, sweeping and the assists that allocation
// pays.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}

// netPackages are the network stack: time there is socket I/O.
var netPackages = map[string]bool{"net": true, "internal/poll": true, "syscall": true, "internal/syscall/unix": true}

// bucket attributes a sample to one layer: "gc" when the collector is
// anywhere on the stack, else the first layer found walking up from the
// leaf — "net" for the network stack, the symfail/internal package name
// ("collect/fleet" as "fleet", "analysis/stream" as "stream") — else
// "other". Standard-library and runtime work is thus charged to the layer
// that called it.
func bucket(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFuncs {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		if netPackages[pkg] {
			return "net"
		}
		if layer, ok := strings.CutPrefix(pkg, "symfail/internal/"); ok {
			return layer[strings.LastIndexByte(layer, '/')+1:]
		}
	}
	return "other"
}

// shares returns each bucket's share of the profile's CPU time.
func (p *profile) shares() map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range p.samples {
		by[bucket(s.stack)] += s.weight
		total += s.weight
	}
	out := map[string]float64{}
	for k, v := range by {
		out[k] = float64(v) / float64(max(total, 1))
	}
	return out
}

// shareWith returns the share of CPU time whose stack holds fn called,
// at any depth, from a function of package caller.
func (p *profile) shareWith(fn, caller string) float64 {
	var total, hit int64
	for _, s := range p.samples {
		total += s.weight
		for i, f := range s.stack {
			if f != fn {
				continue
			}
			for _, up := range s.stack[i+1:] {
				if funcPackage(up) == caller {
					hit += s.weight
					break
				}
			}
			break
		}
	}
	return float64(hit) / float64(max(total, 1))
}
