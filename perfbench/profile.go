package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile sample, decoded from runtime/pprof's gzipped protobuf
// output: the stack as function names, innermost first, and the CPU time
// the sample stands for.
type sample struct {
	stack []string
	ns    int64
}

// decodeProfile decodes the subset of the pprof protobuf format a Go CPU
// profile uses: samples, locations with their (possibly inlined) lines,
// functions and the string table. It needs no dependency beyond the
// standard library.
func decodeProfile(gz []byte) ([]sample, error) {
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
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
		nsIndex = -1 // which sample value holds nanoseconds
		types   [][2]int64
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s rawSample
			if err := fields(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, bb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range types {
		if str(t[1]) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if nsIndex >= len(s.values) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				stack = append(stack, str(fnName[f]))
			}
		}
		out = append(out, sample{stack: stack, ns: s.values[nsIndex]})
	}
	return out, nil
}

// fields walks the protobuf fields of b, calling fn with the field number,
// wire type, and the varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
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

// Self-time buckets for samples whose innermost frame is Go runtime code.
const (
	bucketSched = "runtime.sched"
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

const modulePrefix = "nisim/internal/"

// runFrames mark a stack executing inside (*Machine).Run: the caller's
// event loop (and the sharded coordinator beneath it), the simulated
// processes it spawns, and the partition workers.
var runFrames = []string{
	modulePrefix + "machine.(*Machine).Run",
	modulePrefix + "sim.(*Engine).Spawn.func1",
	modulePrefix + "sim/partition.(*Group).worker",
}

// gcFrames mark runtime work that allocates or collects memory.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush",
	"runtime.gcWriteBarrier",
}

// pkgOf returns the package path of a qualified function name, such as
// "nisim/internal/sim" for "nisim/internal/sim.(*Engine).Step".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isRuntime reports whether fn is Go runtime code: the scheduler,
// channels, futexes, atomics, timers and the memory manager.
func isRuntime(fn string) bool {
	p := pkgOf(fn)
	return p == "runtime" || strings.HasPrefix(p, "runtime/") ||
		strings.HasPrefix(p, "internal/runtime/") || p == "sync/atomic"
}

// inRun reports whether a sample was taken inside (*Machine).Run. A stack
// of runtime frames only (the scheduler on its own stack, background GC
// workers) is counted as inside Run: the benchmark spends nearly all of
// its host time there.
func inRun(stack []string) bool {
	allRuntime := true
	for _, f := range stack {
		for _, r := range runFrames {
			if strings.HasPrefix(f, r) {
				return true
			}
		}
		if !isRuntime(f) {
			allRuntime = false
		}
	}
	return allRuntime
}

// bucket attributes a sample's self time. A runtime leaf goes to the GC
// bucket when a memory-management frame is on the stack and to the
// scheduler bucket otherwise; any other leaf goes to the layer of the
// innermost nisim/internal frame, so math/rand called from workload counts
// as workload and the partition engine counts as its own layer.
func bucket(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	if isRuntime(stack[0]) {
		for _, f := range stack {
			for _, g := range gcFrames {
				if strings.HasPrefix(f, g) {
					return bucketGC
				}
			}
		}
		return bucketSched
	}
	for _, f := range stack {
		if strings.HasPrefix(f, modulePrefix) {
			layer := strings.TrimPrefix(pkgOf(f), modulePrefix)
			if layer == "sim/partition" {
				return "partition"
			}
			return layer
		}
	}
	return bucketOther
}

// selfShares returns each bucket's share of the CPU time of the samples
// taken inside Run.
func selfShares(samples []sample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		if inRun(s.stack) {
			out[bucket(s.stack)] += float64(s.ns)
			total += float64(s.ns)
		}
	}
	for b := range out {
		out[b] /= total
	}
	return out
}
