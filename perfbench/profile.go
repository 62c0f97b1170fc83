package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark needs only the stacks and their sample values, so it
// decodes the few fields it reads with a minimal protobuf reader
// instead of depending on the pprof library.

// stack is one sampled call stack, leaf frame first, with inlined
// frames expanded; weight is its CPU time in nanoseconds (or its
// sample count when the profile carries no time value).
type stack struct {
	frames []string
	weight int64
}

// parseProfile decodes a (possibly gzipped) CPU profile into stacks.
func parseProfile(data []byte) ([]stack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendUints(nil, wire, v, b) {
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
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
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
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{weight: 1}
		switch {
		case len(s.values) >= 2:
			st.weight = s.values[1]
		case len(s.values) == 1:
			st.weight = s.values[0]
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				name := "?"
				if idx, ok := funcs[fn]; ok && idx >= 0 && int(idx) < len(strs) {
					name = strs[idx]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated uint64 field that may arrive packed
// (wire type 2) or as single varints (wire type 0); runtime/pprof
// emits both forms.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and payload (v for varints, b for length-delimited
// fields).
func eachField(data []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layers a CPU sample is folded into. Every layer except unattributed
// is named; the traced run fails when the named layers hold less than
// minAttributed of the samples.
const (
	layerSim          = "sim"
	layerVnet         = "vnet"
	layerNetem        = "netem"
	layerFlow         = "flow"
	layerBT           = "bt"
	layerApp          = "app"
	layerExp          = "exp"
	layerTrace        = "trace"
	layerSched        = "runtime.sched"
	layerGC           = "runtime.gc"
	layerUnattributed = "unattributed"

	minAttributed = 0.95
)

// layerOrder is the order the per-layer table prints in.
var layerOrder = []string{layerSim, layerVnet, layerNetem, layerFlow, layerBT,
	layerApp, layerExp, layerTrace, layerSched, layerGC, layerUnattributed}

// pkgLayer maps a package to the layer that owns its CPU time.
// Packages absent here (ip helpers, sort, crypto, the allocator, ...)
// charge their time to the nearest caller that is present.
var pkgLayer = map[string]string{
	"repro/internal/sim":      layerSim,
	"container/heap":          layerSim,
	"repro/internal/vnet":     layerVnet,
	"repro/internal/virt":     layerVnet,
	"repro/internal/netem":    layerNetem,
	"repro/internal/flow":     layerFlow,
	"repro/internal/bt":       layerBT,
	"repro/internal/chord":    layerApp,
	"repro/internal/gossip":   layerApp,
	"repro/internal/churn":    layerApp,
	"repro/internal/exp":      layerExp,
	"repro/internal/scenario": layerExp,
	"repro/internal/metrics":  layerExp,
	"repro/internal/sched":    layerExp,
	"repro/internal/trace":    layerTrace,
	"repro/internal/obs":      layerTrace,
	"fmt":                     layerTrace,
	"strconv":                 layerTrace,
	"runtime/pprof":           layerTrace,
}

// gcFrames are runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work (background marking,
// mark assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.markroot", "runtime.scanobject", "runtime.scanstack",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.deductSweepCredit", "runtime.(*mheap).reclaim",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier",
}

// schedFrames are runtime and sync functions that, met among the leaf
// frames before any program frame, mark the sample as goroutine
// scheduling: parking and waking, channel hand-off, futexes and the
// scheduler loop itself.
var schedFrames = []string{
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.findrunnable",
	"runtime.mcall", "runtime.gosched", "runtime.goschedImpl", "runtime.goexit",
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.closechan",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep",
	"runtime.semasleep", "runtime.semawakeup", "runtime.semacquire", "runtime.semrelease",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.handoffp",
	"runtime.runqgrab", "runtime.runqsteal", "runtime.netpoll", "runtime.usleep",
	"runtime.osyield", "runtime.lock2", "runtime.unlock2", "runtime.execute",
	"runtime.gogo", "runtime.casgstatus", "runtime.sysmon", "runtime.mstart",
	"runtime.exitsyscall", "runtime.entersyscall", "runtime.reentersyscall",
	"runtime.sync_runtime_Semacquire", "runtime.sync_runtime_SemacquireMutex",
	"runtime.sync_runtime_Semrelease", "runtime.notifyList",
	"sync.(*Mutex).lockSlow", "sync.(*Mutex).unlockSlow", "sync.(*Cond).Wait",
	"sync.runtime_", "internal/sync.(*Mutex).lockSlow", "internal/sync.(*Mutex).unlockSlow",
}

// funcPackage returns the import path of a profiled function name such
// as "repro/internal/sim.(*Kernel).Run" or "container/heap.Push".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// isRuntimePkg reports whether a package belongs to the Go runtime or
// the low-level packages the scheduler fast paths run through.
func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || pkg == "sync" || pkg == "sync/atomic" ||
		strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/")
}

func hasPrefixIn(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// classify returns the layer a stack's CPU time belongs to: GC work
// anywhere on the stack; else scheduler work among the runtime frames
// at the leaf; else the first frame, walking from the leaf, whose
// package a layer owns; else unattributed.
func classify(frames []string) string {
	for _, f := range frames {
		if hasPrefixIn(f, gcFrames) {
			return layerGC
		}
	}
	for _, f := range frames {
		if !isRuntimePkg(funcPackage(f)) {
			break
		}
		if hasPrefixIn(f, schedFrames) {
			return layerSched
		}
	}
	for _, f := range frames {
		if l, ok := pkgLayer[funcPackage(f)]; ok {
			return l
		}
	}
	return layerUnattributed
}

// foldLayers sums stack weights per layer and returns each layer's
// share of the total (every layer of layerOrder present, zero when
// idle) and the total weight.
func foldLayers(stacks []stack) (map[string]float64, int64) {
	sums := map[string]int64{}
	var total int64
	for _, s := range stacks {
		sums[classify(s.frames)] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(layerOrder))
	for _, l := range layerOrder {
		if total > 0 {
			shares[l] = float64(sums[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}

// topUnattributed lists the heaviest leaf functions of unattributed
// samples, to show what an unexplained share is made of.
func topUnattributed(stacks []stack, n int) []string {
	sums := map[string]int64{}
	for _, s := range stacks {
		if classify(s.frames) == layerUnattributed && len(s.frames) > 0 {
			sums[s.frames[0]] += s.weight
		}
	}
	names := make([]string, 0, len(sums))
	for k := range sums {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if sums[names[i]] != sums[names[j]] {
			return sums[names[i]] > sums[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}
