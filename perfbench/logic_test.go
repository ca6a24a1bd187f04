package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndTailRule(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// The cell percentiles' sample counts: paper16's 175 and overload8's
	// 114 cells per pass leave at least ten samples beyond p90; scale256's
	// four cells per pass do not.
	for _, c := range []struct {
		n, beyond int
		tail      bool
	}{{100, 10, true}, {175, 17, true}, {114, 11, true}, {109, 10, true}, {99, 9, false}, {8, 0, false}} {
		b := beyond(c.n, 0.90)
		if b != c.beyond || isTail(c.n, 0.90) != c.tail {
			t.Errorf("beyond(%d, 0.90) = %d, want %d (tail %v)", c.n, b, c.beyond, c.tail)
		}
	}
}

func TestSummarizeCountsEachCellOnce(t *testing.T) {
	// Four cells, one of which fails: attempted and failed count cells,
	// not executions, and a stall is a failed cell, not a failed check.
	p := pass{attempted: 4, failures: []string{"c/2: stalled"}}
	r := summarize(p, nil)
	if r.Attempted != 4 || r.Failed != 1 || !r.Correct {
		t.Errorf("summarize = attempted %d failed %d correct %v, want 4, 1, true",
			r.Attempted, r.Failed, r.Correct)
	}
	p.failures = append(p.failures, "c/3: check: 2 messages sent, 1 received")
	if r := summarize(p, nil); r.Correct || r.Failed != 2 {
		t.Errorf("a failed check: correct %v, failed %d; want false, 2", r.Correct, r.Failed)
	}
	if r := summarize(pass{attempted: 4}, []string{"cell c/1: differs"}); r.Correct {
		t.Error("a re-timed cell with other results left the run correct")
	}
}

func TestTimingSumsCellMedians(t *testing.T) {
	ms := time.Millisecond
	tm := timing{execs: [][]execTime{
		{{wall: 10 * ms}, {wall: 30 * ms}, {wall: 20 * ms}},
		{{wall: 5 * ms}, {wall: 7 * ms}}, // the wrap-around left it one execution short
	}}
	if got, want := sum(tm.medians(wallOf)), 0.020+0.006; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum of cell medians = %v, want %v", got, want)
	}
	if n := tm.executions(); n != 5 {
		t.Errorf("executions = %d, want 5", n)
	}
	tm.execs[1][0].setup, tm.execs[1][1].setup = 4*ms, 9*ms
	tm.setups = [][]time.Duration{nil, {1 * ms, 2 * ms, 8 * ms}}
	if got := tm.setupMedians(); got[0] != 0 || math.Abs(got[1]-0.004) > 1e-12 {
		t.Errorf("set-up medians = %v, want [0 0.004]", got)
	}
}

func TestReferenceSlice(t *testing.T) {
	r := newReference()
	// The ring is one cycle through every slot, so the chase never
	// settles into a short loop that stays in the fastest cache.
	seen, p := 0, uint32(0)
	for {
		p = r.ring[p]
		seen++
		if p == 0 {
			break
		}
	}
	if seen != refRingLen {
		t.Errorf("ring cycle through 0 has %d slots, want %d", seen, refRingLen)
	}
	if a := testing.AllocsPerRun(5, func() { r.slice() }); a != 0 {
		t.Errorf("a reference slice allocates %v times, want 0", a)
	}
	r.run()
	if r.slices < 7 { // 1 + 5 AllocsPerRun runs + at least 1 run
		t.Errorf("%d slices after AllocsPerRun and run, want at least 7", r.slices)
	}
	r.owed = time.Duration(float64(100*refNominal) / refShare)
	r.run()
	if r.slices < 17 || r.owed != 0 {
		t.Errorf("after owing 100 nominal slices' share: %d slices, owed %v; want at least 17, 0", r.slices, r.owed)
	}
	r.total, r.slices = 3*refNominal, 6
	if f := r.factor(); f != 2 {
		t.Errorf("factor with slices at half the nominal time = %v, want 2", f)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestProfileBucketing(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.lock2", "runtime.chansend", "nisim/internal/sim.(*Process).Yield"}, bucketSched},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, bucketSched},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "nisim/internal/sim/partition.(*Group).worker"}, bucketSched},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "nisim/internal/netsim.(*Network).inject"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"math/rand.(*rngSource).Seed", "math/rand.NewSource", "nisim/internal/workload.rng", "nisim/internal/workload.dsmcProgram.func1"}, "workload"},
		{[]string{"nisim/internal/sim.(*eventHeap).push", "nisim/internal/sim.(*Engine).AtEvent"}, "sim"},
		{[]string{"nisim/internal/sim/partition.(*Group).integrate", "nisim/internal/sim/partition.(*Group).Run"}, "partition"},
		{[]string{"sort.insertionSort", "sort.Sort"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	if got := pkgOf("nisim/internal/sim.heap[go.shape.*nisim/internal/x.T].push"); got != "nisim/internal/sim" {
		t.Errorf("pkgOf on a generic instantiation = %q", got)
	}
}

func TestSelfShares(t *testing.T) {
	shares := selfShares([]sample{
		{[]string{"nisim/internal/sim.(*Engine).Step", "nisim/internal/machine.(*Machine).Run"}, 30},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, 10},
		{[]string{"nisim/internal/nic.New", "nisim/internal/machine.New"}, 50}, // outside Run
	})
	if len(shares) != 2 || shares["sim"] != 0.75 || shares[bucketSched] != 0.25 {
		t.Errorf("shares = %v, want sim 0.75 and the scheduler 0.25", shares)
	}
}

func TestInRun(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  bool
	}{
		{[]string{"nisim/internal/sim.(*Engine).Step", "nisim/internal/machine.(*Machine).Run", "main.execCell"}, true},
		{[]string{"nisim/internal/cache.(*Cache).Read", "nisim/internal/sim.(*Engine).Spawn.func1"}, true},
		{[]string{"runtime.procyield", "nisim/internal/sim/partition.(*Group).worker"}, true},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, true},
		{[]string{"nisim/internal/nic.New", "nisim/internal/machine.build", "nisim/internal/machine.New", "main.execCell"}, false},
		{[]string{"runtime.mallocgc", "nisim/internal/stats.(*Machine).Total", "main.cellDigest"}, false},
	} {
		if got := inRun(c.stack); got != c.want {
			t.Errorf("inRun(%v) = %v, want %v", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".spin") { // main.spin, or the package path under go test

				found = true
			}
		}
	}
	if !found || total <= 0 {
		t.Fatalf("decoded %d samples (%d ns); none in spin: %v", len(samples), total, samples)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Cell: "c", ID: 1, Name: "cell", StartNS: 0, EndNS: 100},
		{Cell: "c", ID: 2, Parent: 1, Name: "machine.New", StartNS: 10, EndNS: 30},
		{Cell: "c", ID: 3, Parent: 1, Name: "machine.Run", StartNS: 20, EndNS: 50}, // overlaps New
		{Cell: "c", ID: 4, Parent: 1, Name: "check", StartNS: 90, EndNS: 120},      // runs past the root
		{Cell: "d", ID: 5, Name: "cell", StartNS: 200, EndNS: 210},
	}
	self := selfTimes(spans)
	// Root c: 100 ns minus the union [10,50) ∪ [90,100) = 50 ns; root d: 10 ns.
	if got, want := self["cell"], 60e-9; !near(got, want) {
		t.Errorf("cell self = %v, want %v", got, want)
	}
	if got, want := self["machine.Run"], 30e-9; !near(got, want) {
		t.Errorf("machine.Run self = %v, want %v", got, want)
	}
	if got, want := totals(spans)["cell"], 110e-9; !near(got, want) {
		t.Errorf("cell total = %v, want %v", got, want)
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }

func TestMetricNamePattern(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.ns_per_event", "runtime.sched_self_s", "a-b.c_9"} {
		if err := checkNames(map[string]metric{ok: {}}); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "wall s", "a/b", "_x", ".x", "cell%", strings.Repeat("x", 65)} {
		if err := checkNames(map[string]metric{bad: {}}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric %q does not match the name pattern", m.name)
			}
		}
	}
}

// TestBenchmarkJSONListsTheMetrics pins BENCHMARK.json's metric lists to
// the ones the benchmark prints.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", what, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark has %d", names, len(workloads))
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		var out []float64
		for _, v := range base {
			out = append(out, v*f)
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		lower  bool
		want   string
	}{
		{"faster", scaled(0.9), true, "improved"},
		{"same", base, true, "unchanged"},
		{"slower", scaled(1.2), true, "worse"},
		{"slightly slower", scaled(1.02), true, "unchanged"},
		{"higher is better", scaled(1.1), false, "improved"},
	} {
		if _, got := verdict(base, c.change, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 6, 14, 9, 11, 7, 13}
	if _, got := verdict(noisy, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
}

func TestParseRuns(t *testing.T) {
	out := `build noise
{"detail":{"workload":"paper16","seed":3,"trace":0,"digest":"abc","counts":{"sim.events":7}}}
{"correct":true,"attempted":2,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}
`
	runs, err := parseRuns("f", strings.NewReader(out))
	if err != nil || len(runs) != 1 {
		t.Fatalf("parseRuns: %v, %d runs", err, len(runs))
	}
	r := runs[0]
	if r.detail.Workload != "paper16" || r.detail.Seed != 3 || r.detail.Digest != "abc" ||
		r.detail.Counts["sim.events"] != 7 || r.values["wall_s"] != 1.5 {
		t.Errorf("parsed %+v", r)
	}
	other := r
	other.detail.Digest = "abd"
	if d := exactDiffs([]runRecord{r}, []runRecord{other}); len(d) != 1 {
		t.Errorf("exactDiffs found %v, want the digest difference", d)
	}
}
