package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pb is a tiny protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(num int, x uint64) { p.varint(uint64(num)<<3 | 0); p.varint(x) }

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// testProfile encodes two samples over three functions: sample 1 with
// packed fields and an inlined frame, sample 2 with unpacked fields.
func testProfile() []byte {
	var p pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/sim.(*Kernel).Run", "container/heap.Push", "runtime.mallocgc"}
	var vt pb
	vt.uint(1, 1)
	vt.uint(2, 2)
	p.bytes(1, vt.b)
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 3, 30000000)
	p.bytes(2, s1.b)
	var s2 pb
	s2.uint(1, 3)
	s2.uint(2, 1)
	s2.uint(2, 10000000)
	p.bytes(2, s2.b)
	// location 1: heap.Push inlined into Kernel.Run; 2: Kernel.Run; 3: mallocgc.
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	loc(1, 2, 1)
	loc(2, 1)
	loc(3, 3)
	fn := func(id, name uint64) {
		var f pb
		f.uint(1, id)
		f.uint(2, name)
		p.bytes(5, f.b)
	}
	fn(1, 5)
	fn(2, 6)
	fn(3, 7)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

func TestParseProfile(t *testing.T) {
	stacks, err := parseProfile(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("got %d stacks, want 2", len(stacks))
	}
	want0 := "container/heap.Push repro/internal/sim.(*Kernel).Run repro/internal/sim.(*Kernel).Run"
	if got := strings.Join(stacks[0].frames, " "); got != want0 || stacks[0].weight != 30000000 {
		t.Errorf("stack 0 = %q weight %d", got, stacks[0].weight)
	}
	if got := strings.Join(stacks[1].frames, " "); got != "runtime.mallocgc" || stacks[1].weight != 10000000 {
		t.Errorf("stack 1 = %q weight %d", got, stacks[1].weight)
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		for _, f := range s.frames {
			// The package under test is named main in a binary and by its
			// import path in a test binary.
			if strings.HasSuffix(f, ".spin") {
				return
			}
		}
	}
	t.Errorf("no sample in spin among %d stacks: %v", len(stacks), stacks)
}

var sink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			sink += uint64(i) * sink
		}
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim.(*Kernel).Run":       "repro/internal/sim",
		"container/heap.Push":                    "container/heap",
		"runtime.gopark":                         "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "internal/runtime/atomic",
		"main.spin":                              "main",
		"repro/internal/bt.sortBy[...].func1":    "repro/internal/bt",
	}
	for in, want := range cases {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"container/heap.up", "container/heap.Push", "repro/internal/sim.(*Kernel).Run"}, layerSim},
		// The allocator's time belongs to the layer that allocated.
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/bt.(*Client).onMsg", "repro/internal/sim.(*Kernel).Run"}, layerBT},
		// Utility packages charge their caller.
		{[]string{"sort.Slice", "repro/internal/ip.Addr.String", "repro/internal/netem.(*Pipe).ScheduleAt"}, layerNetem},
		// Park/wake hand-off is scheduler work even when sim called it.
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.goready", "runtime.chansend1", "repro/internal/sim.(*Kernel).wake"}, layerSched},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerSched},
		// A scheduler frame above a program frame does not make it scheduler work.
		{[]string{"repro/internal/vnet.(*Host).deliver", "runtime.goexit"}, layerVnet},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/flow.(*Model).apply"}, layerGC},
		{[]string{"fmt.Sprintf", "repro/internal/trace.(*Log).Add"}, layerTrace},
		{[]string{"repro/internal/chord.(*Node).lookup"}, layerApp},
		{[]string{"repro/internal/scenario.Run"}, layerExp},
		{[]string{"main.spin", "main.main"}, layerUnattributed},
		{nil, layerUnattributed},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestFoldLayers(t *testing.T) {
	stacks := []stack{
		{frames: []string{"repro/internal/sim.(*Kernel).Run"}, weight: 6},
		{frames: []string{"runtime.gopark"}, weight: 3},
		{frames: []string{"main.main"}, weight: 1},
	}
	shares, total := foldLayers(stacks)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	if shares[layerSim] != 0.6 || shares[layerSched] != 0.3 || shares[layerUnattributed] != 0.1 {
		t.Errorf("shares = %v", shares)
	}
	var sum float64
	for _, l := range layerOrder {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := topUnattributed(stacks, 3); len(got) != 1 || got[0] != "main.main" {
		t.Errorf("topUnattributed = %v", got)
	}
	if shares, total := foldLayers(nil); total != 0 || shares[layerSim] != 0 {
		t.Errorf("empty fold = %v, %d", shares, total)
	}
}
